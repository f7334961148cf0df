// Quantizer tests: Eq. 2 semantics, clamping, round-trip error bounds, and a
// parameterized sweep over bitwidths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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
  // 5x7 = 35 values: full lane blocks and a scalar tail. Each bad value goes
  // in the first block, a later block and the tail.
  for (const float v : {nan, inf, -inf}) {
    for (const i64 at : {0, 3, 9, 20, 31, 33, 34}) {
      MatrixF m(5, 7, 1.0f);
      m.data()[at] = v;
      EXPECT_THROW(quant_params_from_data(m, 4), std::invalid_argument)
          << v << " at index " << at;
    }
  }
}

TEST(Quantize, ParamsFromDataEqualSequentialScan) {
  const auto expect_sequential = [](const MatrixF& m, const char* what) {
    float lo = m.data()[0], hi = m.data()[0];
    for (i64 i = 0; i < m.size(); ++i) {
      lo = std::min(lo, m.data()[i]);
      hi = std::max(hi, m.data()[i]);
    }
    if (hi <= lo) hi = lo + 1.0f;
    const QuantParams p = quant_params_from_data(m, 8);
    EXPECT_EQ(p.alpha_min, lo) << what;
    EXPECT_EQ(p.alpha_max, hi) << what;
  };
  // The minimum or maximum only in the tail of a 5x7 matrix.
  for (const i64 at : {32, 33, 34}) {
    MatrixF m(5, 7, 0.5f);
    for (i64 i = 0; i < 32; ++i) m.data()[i] = 0.25f * static_cast<float>(i % 5);
    m.data()[at] = -7.0f;
    expect_sequential(m, "min in tail");
    m.data()[at] = 9.0f;
    expect_sequential(m, "max in tail");
  }
  Rng rng(77);
  for (const auto& [rows, cols] : {std::pair<i64, i64>{1, 1}, {1, 15}, {3, 11},
                                   {5, 7}, {16, 16}, {37, 29}}) {
    MatrixF m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_float(-3.0f, 2.0f);
    expect_sequential(m, "random");
  }
}

/// Eq. 2 as floor-then-clamp, kept only as the oracle the clamp-then-truncate
/// quantizer is pinned to.
i32 floor_then_clamp(float alpha, const QuantParams& p) {
  const double q =
      std::floor((static_cast<double>(alpha) - p.alpha_min) / p.scale());
  return static_cast<i32>(std::clamp(q, 0.0, static_cast<double>(p.qmax())));
}

TEST(Quantize, ClampTruncateEqualsFloorForm) {
  const float big = 3e38f;
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const int bits : {1, 4, 8, 16, 31}) {
    for (const QuantParams p : {QuantParams{-1.5f, 2.5f, bits},
                                QuantParams{0.0f, 1.0f, bits},
                                QuantParams{-3e-30f, 5e-30f, bits}}) {
      const double s = p.scale();
      std::vector<float> alphas = {-0.0f, 0.0f,   big,     -big,
                                   denorm, -denorm, 1e-40f, -1e-40f,
                                   p.alpha_max, 2.0f * p.alpha_max};
      // y at, just below and just above integers across the code range,
      // including 0, qmax and qmax + 1; and y in (-1, 0).
      for (const double y : {0.0, 1.0, 2.0, 3.0, 0.5 * p.qmax(),
                             static_cast<double>(p.qmax()),
                             static_cast<double>(p.qmax()) + 1.0, -0.5,
                             -1e-6}) {
        const float a = static_cast<float>(p.alpha_min + y * s);
        alphas.push_back(a);
        alphas.push_back(std::nextafter(a, -big));
        alphas.push_back(std::nextafter(a, big));
      }
      std::vector<i32> want;
      for (const float a : alphas) {
        want.push_back(floor_then_clamp(a, p));
        ASSERT_EQ(quantize_value(a, p), want.back())
            << "alpha " << a << ", " << bits << " bits";
      }
      // Span lengths and offsets off the vector width.
      for (const std::size_t off : {0u, 1u, 3u}) {
        for (std::size_t n = 1; off + n <= alphas.size(); n += 3) {
          std::vector<i32> got(n, -1);
          quantize_span(alphas.data() + off, static_cast<i64>(n), p, got.data());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i], want[off + i])
                << "span of " << n << " at " << off << ", " << bits << " bits";
          }
        }
      }
    }
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
