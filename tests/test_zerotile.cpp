// Zero-tile census tests (paper §4.3 / Figure 8 machinery): the tile-CSR
// built from a dense matrix stores exactly the tiles the §4.3 OR test finds
// nonzero, so its stored-tile count is the census.
#include <gtest/gtest.h>

#include "bittensor/tile_sparse.hpp"
#include "common/rng.hpp"

namespace qgtc {
namespace {

TEST(ZeroTile, AllZero) {
  const BitMatrix m(32, 256, BitLayout::kRowMajorK);
  const TileSparseBitMatrix t = TileSparseBitMatrix::from_bit_matrix(m);
  EXPECT_EQ(t.tiles_m(), 4);
  EXPECT_EQ(t.tiles_k(), 2);
  EXPECT_EQ(t.nnz_tiles(), 0);
  EXPECT_DOUBLE_EQ(t.nonzero_ratio(), 0.0);
}

TEST(ZeroTile, SingleBitMarksOneTile) {
  BitMatrix m(32, 256, BitLayout::kRowMajorK);
  m.set(9, 130, true);  // row tile 1, k tile 1
  const TileSparseBitMatrix t = TileSparseBitMatrix::from_bit_matrix(m);
  EXPECT_EQ(t.nnz_tiles(), 1);
  EXPECT_EQ(t.row_nnz(0), 0);
  ASSERT_EQ(t.row_nnz(1), 1);
  EXPECT_EQ(t.tile_col(t.row_begin(1)), 1);
}

TEST(ZeroTile, BlockDiagonalPattern) {
  // Two 16-node blocks on the diagonal of a 32-node adjacency: half the
  // row-tile x k-tile grid is non-zero (the batching structure of §4.1).
  BitMatrix m(32, 256, BitLayout::kRowMajorK);
  for (i64 i = 0; i < 16; ++i) {
    for (i64 j = 0; j < 128; ++j) m.set(i, j, true);
  }
  for (i64 i = 16; i < 32; ++i) {
    for (i64 j = 128; j < 256; ++j) m.set(i, j, true);
  }
  const TileSparseBitMatrix t = TileSparseBitMatrix::from_bit_matrix(m);
  EXPECT_EQ(t.total_tiles(), 8);
  EXPECT_EQ(t.nnz_tiles(), 4);
  EXPECT_DOUBLE_EQ(t.nonzero_ratio(), 0.5);
}

TEST(ZeroTile, RequiresRowMajorLayout) {
  const BitMatrix m(256, 32, BitLayout::kColMajorK);
  EXPECT_THROW(TileSparseBitMatrix::from_bit_matrix(m), std::invalid_argument);
}

TEST(ZeroTile, PaddingTilesAreZero) {
  // Logical 9x129 pads to 16x256: the padding-only tiles must read zero.
  BitMatrix m(9, 129, BitLayout::kRowMajorK);
  for (i64 i = 0; i < 9; ++i) {
    for (i64 j = 0; j < 129; ++j) m.set(i, j, true);
  }
  const TileSparseBitMatrix t = TileSparseBitMatrix::from_bit_matrix(m);
  EXPECT_EQ(t.tiles_m(), 2);
  EXPECT_EQ(t.tiles_k(), 2);
  // All four tiles contain at least one logical bit except... row tile 1
  // covers rows 8..15 (row 8 is logical), k tile 1 covers cols 128..255
  // (col 128 logical) — so all 4 tiles are non-zero here.
  EXPECT_EQ(t.nnz_tiles(), 4);
}

TEST(ZeroTile, DensityTracksRatio) {
  Rng rng(99);
  BitMatrix m(64, 512, BitLayout::kRowMajorK);
  // ~1 bit per 1024 => most, but not all, tiles hit.
  for (int s = 0; s < 24; ++s) {
    m.set(rng.next_in(0, 63), rng.next_in(0, 511), true);
  }
  const TileSparseBitMatrix t = TileSparseBitMatrix::from_bit_matrix(m);
  EXPECT_GT(t.nnz_tiles(), 0);
  EXPECT_LE(t.nnz_tiles(), 24);
  EXPECT_LT(t.nonzero_ratio(), 1.0);
}

}  // namespace
}  // namespace qgtc
