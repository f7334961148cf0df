// BitMatrix tests: both §4.2 packing layouts, padding policies, set/get
// round-trips, and pack/unpack consistency.
#include <gtest/gtest.h>

#include "bittensor/bit_matrix.hpp"
#include "common/rng.hpp"

namespace qgtc {
namespace {

TEST(BitMatrix, RowMajorKPaddedShape) {
  // A-side: rows pad to 8, K (cols) pads to 128.
  const BitMatrix m(10, 200, BitLayout::kRowMajorK, PadPolicy::kTile8);
  EXPECT_EQ(m.padded_rows(), 16);
  EXPECT_EQ(m.padded_cols(), 256);
  EXPECT_EQ(m.k_words(), 8);
  EXPECT_EQ(m.lines(), 16);
  EXPECT_EQ(m.bytes(), 16 * 8 * 4);
}

TEST(BitMatrix, RowMajorKOperandPadding) {
  // Hidden-layer padding rule: non-K extent pads to 128 instead of 8.
  const BitMatrix m(10, 200, BitLayout::kRowMajorK, PadPolicy::kOperand128);
  EXPECT_EQ(m.padded_rows(), 128);
  EXPECT_EQ(m.padded_cols(), 256);
}

TEST(BitMatrix, ColMajorKPaddedShape) {
  // B-side: K (rows) pads to 128, cols pad to 8.
  const BitMatrix m(200, 10, BitLayout::kColMajorK, PadPolicy::kTile8);
  EXPECT_EQ(m.padded_rows(), 256);
  EXPECT_EQ(m.padded_cols(), 16);
  EXPECT_EQ(m.k_words(), 8);
  EXPECT_EQ(m.lines(), 16);
}

TEST(BitMatrix, SetGetRowMajor) {
  BitMatrix m(9, 130, BitLayout::kRowMajorK);
  EXPECT_FALSE(m.get(3, 100));
  m.set(3, 100, true);
  EXPECT_TRUE(m.get(3, 100));
  m.set(3, 100, false);
  EXPECT_FALSE(m.get(3, 100));
  // Neighbouring bits untouched.
  m.set(3, 99, true);
  m.set(3, 101, true);
  EXPECT_FALSE(m.get(3, 100));
}

TEST(BitMatrix, SetGetColMajor) {
  BitMatrix m(130, 9, BitLayout::kColMajorK);
  m.set(100, 3, true);
  EXPECT_TRUE(m.get(100, 3));
  EXPECT_FALSE(m.get(99, 3));
  EXPECT_FALSE(m.get(100, 2));
}

TEST(BitMatrix, LittleEndianWithinWord) {
  // Paper Figure 4: every 32 bits stored little-endian. Column 0 is bit 0.
  BitMatrix m(8, 128, BitLayout::kRowMajorK);
  m.set(0, 0, true);
  EXPECT_EQ(m.row_words(0)[0], 1u);
  m.set(0, 31, true);
  EXPECT_EQ(m.row_words(0)[0], 0x80000001u);
  m.set(0, 32, true);
  EXPECT_EQ(m.row_words(0)[1], 1u);
}

TEST(BitMatrix, PackNonzero) {
  MatrixI32 m(3, 3, 0);
  m(0, 0) = 5;
  m(1, 2) = -1;
  m(2, 1) = 1;
  const BitMatrix bm = pack_nonzero(m, BitLayout::kRowMajorK);
  EXPECT_TRUE(bm.get(0, 0));
  EXPECT_TRUE(bm.get(1, 2));
  EXPECT_TRUE(bm.get(2, 1));
  EXPECT_FALSE(bm.get(0, 1));
  EXPECT_FALSE(bm.get(2, 2));
}

/// Property: pack -> unpack round-trips the 0/1 pattern for random matrices
/// in both layouts.
class BitMatrixRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, BitLayout>> {};

TEST_P(BitMatrixRoundTrip, PackUnpack) {
  const auto [rows, cols, layout] = GetParam();
  Rng rng(static_cast<u64>(rows * 1000 + cols));
  MatrixI32 m(rows, cols);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_bool(0.4f) ? 1 : 0;
  const BitMatrix bm = pack_nonzero(m, layout);
  const MatrixI32 back = unpack_bits(bm);
  EXPECT_EQ(m, back);
  // Padding regions stay zero: total set bits equals logical set bits.
  i64 logical = 0;
  for (i64 i = 0; i < m.size(); ++i) logical += m.data()[i];
  i64 packed = 0;
  for (i64 w = 0; w < bm.lines() * bm.k_words(); ++w) {
    packed += std::popcount(bm.data()[w]);
  }
  EXPECT_EQ(packed, logical);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitMatrixRoundTrip,
    ::testing::Values(
        std::make_tuple(1, 1, BitLayout::kRowMajorK),
        std::make_tuple(8, 128, BitLayout::kRowMajorK),
        std::make_tuple(9, 129, BitLayout::kRowMajorK),
        std::make_tuple(33, 257, BitLayout::kRowMajorK),
        std::make_tuple(1, 1, BitLayout::kColMajorK),
        std::make_tuple(128, 8, BitLayout::kColMajorK),
        std::make_tuple(129, 9, BitLayout::kColMajorK),
        std::make_tuple(257, 33, BitLayout::kColMajorK)));

}  // namespace
}  // namespace qgtc
