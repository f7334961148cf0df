// 3D-stacked bit compression tests: planes word for word against a
// per-plane oracle and decompose/compose round-trips across bitwidths,
// layouts, paddings and ragged shapes; fused quantize+decompose parity; byte
// accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "bittensor/stacked.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc {
namespace {

TEST(Stacked, PlaneCountMatchesBits) {
  MatrixI32 m(4, 4, 3);
  const auto t = StackedBitTensor::decompose(m, 5, BitLayout::kRowMajorK);
  EXPECT_EQ(t.bits(), 5);
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 4);
}

TEST(Stacked, PlanesHoldCorrectBits) {
  MatrixI32 m(2, 2);
  m(0, 0) = 0b110;  // 6
  m(0, 1) = 0b011;  // 3
  m(1, 0) = 0b101;  // 5
  m(1, 1) = 0b000;
  for (const BitLayout layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
    const auto t = StackedBitTensor::decompose(m, 3, layout);
    EXPECT_FALSE(t.plane(0).get(0, 0));
    EXPECT_TRUE(t.plane(1).get(0, 0));
    EXPECT_TRUE(t.plane(2).get(0, 0));
    EXPECT_TRUE(t.plane(0).get(0, 1));
    EXPECT_TRUE(t.plane(1).get(0, 1));
    EXPECT_FALSE(t.plane(2).get(0, 1));
    EXPECT_TRUE(t.plane(0).get(1, 0));
    EXPECT_FALSE(t.plane(1).get(1, 0));
    EXPECT_TRUE(t.plane(2).get(1, 0));
    for (int b = 0; b < 3; ++b) EXPECT_FALSE(t.plane(b).get(1, 1));
  }
}

TEST(Stacked, BytesSumPlanes) {
  MatrixI32 m(10, 200, 1);
  const auto t = StackedBitTensor::decompose(m, 3, BitLayout::kRowMajorK,
                                             PadPolicy::kTile8);
  EXPECT_EQ(t.bytes(), 3 * t.plane(0).bytes());
  // 16 padded rows x 8 words x 4 bytes per plane.
  EXPECT_EQ(t.plane(0).bytes(), 16 * 8 * 4);
}

TEST(Stacked, InvalidBitsThrow) {
  MatrixI32 m(2, 2, 0);
  EXPECT_THROW(StackedBitTensor::decompose(m, 0, BitLayout::kRowMajorK),
               std::invalid_argument);
  EXPECT_THROW(StackedBitTensor::decompose(m, 32, BitLayout::kRowMajorK),
               std::invalid_argument);
}

/// Per-plane oracle: one pass over the matrix per plane, one conditional bit
/// set per element.
BitMatrix oracle_plane(const MatrixI32& m, int bit, BitLayout layout,
                       PadPolicy pad) {
  BitMatrix bm(m.rows(), m.cols(), layout, pad);
  for (i64 r = 0; r < m.rows(); ++r) {
    for (i64 c = 0; c < m.cols(); ++c) {
      if (((m(r, c) >> bit) & 1) == 0) continue;
      if (layout == BitLayout::kRowMajorK) {
        bm.row_words(r)[c / kWordBits] |= 1u << (c % kWordBits);
      } else {
        bm.col_words(c)[r / kWordBits] |= 1u << (r % kWordBits);
      }
    }
  }
  return bm;
}

/// Every plane equals the oracle's, padding words included.
void expect_planes_match_oracle(const StackedBitTensor& t, const MatrixI32& m,
                                BitLayout layout, PadPolicy pad) {
  for (int b = 0; b < t.bits(); ++b) {
    const BitMatrix want = oracle_plane(m, b, layout, pad);
    const BitMatrix& got = t.plane(b);
    ASSERT_EQ(got.lines(), want.lines()) << "plane " << b;
    ASSERT_EQ(got.k_words(), want.k_words()) << "plane " << b;
    for (i64 w = 0; w < want.lines() * want.k_words(); ++w) {
      ASSERT_EQ(got.data()[w], want.data()[w]) << "plane " << b << " word " << w;
    }
  }
}

TEST(Stacked, BitsAboveCountAreDropped) {
  Rng rng(99);
  MatrixI32 m(33, 129);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(static_cast<u32>(rng.next_u64()));
  }
  for (const BitLayout layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
    for (const int bits : {3, 31}) {
      const auto t = StackedBitTensor::decompose(m, bits, layout);
      expect_planes_match_oracle(t, m, layout, PadPolicy::kTile8);
      MatrixI32 low = m;
      for (i64 i = 0; i < low.size(); ++i) {
        low.data()[i] &= static_cast<i32>((1u << bits) - 1);
      }
      EXPECT_EQ(t.compose(), low) << bits << " bits";
    }
  }
}

struct Shape {
  i64 rows, cols;
};

class StackedRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<int, BitLayout, PadPolicy, Shape>> {};

TEST_P(StackedRoundTrip, DecomposeCompose) {
  const auto [bits, layout, pad, shape] = GetParam();
  Rng rng(static_cast<u64>(bits) * 31 + static_cast<u64>(shape.rows));
  MatrixI32 m(shape.rows, shape.cols);
  const u64 codes = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(codes));
  }
  const auto t = StackedBitTensor::decompose(m, bits, layout, pad);
  expect_planes_match_oracle(t, m, layout, pad);
  EXPECT_EQ(t.compose(), m);
}

INSTANTIATE_TEST_SUITE_P(
    BitsLayoutsPadsShapes, StackedRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 12, 16, 31),
                       ::testing::Values(BitLayout::kRowMajorK,
                                         BitLayout::kColMajorK),
                       ::testing::Values(PadPolicy::kTile8,
                                         PadPolicy::kOperand128),
                       ::testing::Values(Shape{1, 1}, Shape{31, 33},
                                         Shape{33, 129}, Shape{543, 100})));

TEST(Stacked, QuantizeMatchesQuantizeThenDecompose) {
  Rng rng(5);
  MatrixF random(543, 100);
  for (i64 i = 0; i < random.size(); ++i) {
    random.data()[i] = rng.next_float(-3.0f, 5.0f);
  }
  const MatrixF constant(33, 129, 0.75f);
  struct Case {
    const char* name;
    const MatrixF* x;
    // Params from the data itself, or a narrower range that clamps.
    bool narrow;
  };
  const Case cases[] = {{"random", &random, false},
                        {"constant", &constant, false},
                        {"out-of-range", &random, true}};
  const int threads_before = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const Case& k : cases) {
      for (const int bits : {1, 4, 8, 31}) {
        const QuantParams p = k.narrow ? QuantParams{-1.0f, 2.0f, bits}
                                       : quant_params_from_data(*k.x, bits);
        const MatrixI32 q = quantize_matrix(*k.x, p);
        for (const BitLayout layout :
             {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
          const auto want = StackedBitTensor::decompose(q, bits, layout);
          const auto got = StackedBitTensor::quantize(*k.x, p, layout);
          ASSERT_EQ(got.bits(), bits);
          for (int b = 0; b < bits; ++b) {
            const BitMatrix& g = got.plane(b);
            const BitMatrix& w = want.plane(b);
            ASSERT_EQ(g.bytes(), w.bytes());
            ASSERT_TRUE(std::equal(g.data(), g.data() + g.lines() * g.k_words(),
                                   w.data()))
                << k.name << ", " << bits << " bits, plane " << b << ", "
                << threads << " threads";
          }
        }
      }
    }
  }
  set_num_threads(threads_before);
}

}  // namespace
}  // namespace qgtc
