// Quantizer tests: Eq. 2 semantics, clamping, round-trip error bounds, and a
// parameterized sweep over bitwidths.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "bittensor/quantize.hpp"
#include "common/rng.hpp"

namespace qgtc {
namespace {

TEST(Quantize, ScaleMatchesEq2) {
  const QuantParams p{0.0f, 8.0f, 3};
  // scale = (max - min) / 2^q = 8 / 8 = 1.
  EXPECT_FLOAT_EQ(p.scale(), 1.0f);
  EXPECT_EQ(p.qmax(), 7);
}

TEST(Quantize, FloorSemantics) {
  const QuantParams p{0.0f, 8.0f, 3};
  EXPECT_EQ(quantize_value(0.0f, p), 0);
  EXPECT_EQ(quantize_value(0.99f, p), 0);
  EXPECT_EQ(quantize_value(1.0f, p), 1);
  EXPECT_EQ(quantize_value(6.5f, p), 6);
}

TEST(Quantize, ClampsOutOfRange) {
  const QuantParams p{0.0f, 8.0f, 3};
  EXPECT_EQ(quantize_value(-5.0f, p), 0);
  EXPECT_EQ(quantize_value(100.0f, p), 7);
  EXPECT_EQ(quantize_value(8.0f, p), 7);  // alpha_max itself saturates
}

TEST(Quantize, ParamsFromData) {
  MatrixF m(2, 2);
  m(0, 0) = -1.0f;
  m(0, 1) = 3.0f;
  m(1, 0) = 0.5f;
  m(1, 1) = 2.0f;
  const QuantParams p = quant_params_from_data(m, 4);
  EXPECT_FLOAT_EQ(p.alpha_min, -1.0f);
  EXPECT_FLOAT_EQ(p.alpha_max, 3.0f);
  EXPECT_EQ(p.bits, 4);
}

TEST(Quantize, DegenerateRangeStaysPositiveScale) {
  MatrixF m(2, 2, 5.0f);
  const QuantParams p = quant_params_from_data(m, 4);
  EXPECT_GT(p.scale(), 0.0f);
  EXPECT_EQ(quantize_value(5.0f, p), 0);
}

TEST(Quantize, InvalidBitsThrow) {
  MatrixF m(1, 1, 0.0f);
  EXPECT_THROW(quant_params_from_data(m, 0), std::invalid_argument);
  EXPECT_THROW(quant_params_from_data(m, 32), std::invalid_argument);
}

TEST(Quantize, NonFiniteInputThrows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::pair<i64, float> bad[] = {{0, nan}, {7, nan}, {9, inf}, {3, -inf}};
  for (const auto& [at, v] : bad) {
    MatrixF m(4, 4, 1.0f);
    m.data()[at] = v;
    EXPECT_THROW(quant_params_from_data(m, 4), std::invalid_argument)
        << v << " at index " << at;
  }
}

TEST(Quantize, MatrixRoundTripShape) {
  MatrixF m(3, 5, 0.25f);
  const QuantParams p{0.0f, 1.0f, 8};
  const MatrixI32 q = quantize_matrix(m, p);
  EXPECT_EQ(q.rows(), 3);
  EXPECT_EQ(q.cols(), 5);
  const MatrixF back = dequantize_matrix(q, p);
  EXPECT_LE(max_abs_diff(m, back), p.scale());
}

/// Property sweep: for random data at every bitwidth, codes stay in range
/// and the dequantized round-trip error is bounded by one scale step.
class QuantizeBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBitSweep, RoundTripErrorBounded) {
  const int bits = GetParam();
  Rng rng(1000 + static_cast<u64>(bits));
  MatrixF m(16, 16);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_float(-4.0f, 4.0f);
  const QuantParams p = quant_params_from_data(m, bits);
  const MatrixI32 q = quantize_matrix(m, p);
  for (i64 i = 0; i < q.size(); ++i) {
    EXPECT_GE(q.data()[i], 0);
    EXPECT_LE(q.data()[i], p.qmax());
  }
  const MatrixF back = dequantize_matrix(q, p);
  // Mid-point dequantization: |x - deq(q(x))| <= scale/2 everywhere except
  // the saturated top code (<= scale).
  EXPECT_LE(max_abs_diff(m, back), p.scale() * 1.001f);
}

INSTANTIATE_TEST_SUITE_P(AllBits, QuantizeBitSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16));

}  // namespace
}  // namespace qgtc
