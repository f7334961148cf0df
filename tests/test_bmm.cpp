// 1-bit BMM kernel tests: equivalence against the integer reference GEMM,
// zero-tile jumping producing identical results while skipping work, and
// shifted accumulation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/bmm.hpp"

namespace qgtc {
namespace {

MatrixI32 random_binary(Rng& rng, i64 rows, i64 cols, float density) {
  MatrixI32 m(rows, cols);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_bool(density) ? 1 : 0;
  return m;
}

TEST(Bmm, MatchesReferenceSmall) {
  Rng rng(3);
  const MatrixI32 a = random_binary(rng, 5, 7, 0.5f);
  const MatrixI32 b = random_binary(rng, 7, 6, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  EXPECT_EQ(bmm(pa, pb), matmul_reference(a, b));
}

TEST(Bmm, MatchesReferenceAcrossTileBoundaries) {
  Rng rng(4);
  // Shapes straddling the 8 / 128 tile boundaries.
  for (const auto& [m, k, n] : std::vector<std::tuple<i64, i64, i64>>{
           {8, 128, 8}, {9, 129, 9}, {16, 256, 24}, {31, 300, 17}}) {
    const MatrixI32 a = random_binary(rng, m, k, 0.3f);
    const MatrixI32 b = random_binary(rng, k, n, 0.6f);
    const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
    const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
    EXPECT_EQ(bmm(pa, pb), matmul_reference(a, b))
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Bmm, ZeroTileJumpSameResult) {
  Rng rng(5);
  // Sparse A with whole-block holes: rows 8..15 entirely zero.
  MatrixI32 a = random_binary(rng, 32, 256, 0.2f);
  for (i64 r = 8; r < 16; ++r) {
    for (i64 c = 0; c < 256; ++c) a(r, c) = 0;
  }
  const MatrixI32 b = random_binary(rng, 256, 16, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);

  BmmOptions nojump;
  BmmOptions jump;
  jump.zero_tile_jump = true;
  EXPECT_EQ(bmm(pa, pb, jump), bmm(pa, pb, nojump));

  // The tile-CSR form of A (structural jumping) agrees too.
  EXPECT_EQ(bmm(TileSparseBitMatrix::from_bit_matrix(pa), pb),
            bmm(pa, pb, nojump));
}

TEST(Bmm, ZeroTileJumpSkipsWork) {
  // All-zero A: every tile is jumped, zero BMMA ops execute.
  MatrixI32 a(64, 256, 0);
  MatrixI32 b(256, 8, 1);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  BmmOptions jump;
  jump.zero_tile_jump = true;

  tcsim::reset_counters();
  const MatrixI32 c = bmm(pa, pb, jump);
  const auto counters = tcsim::snapshot_counters();
  EXPECT_EQ(counters.bmma_ops, 0u);
  EXPECT_EQ(counters.tiles_jumped, (64 / 8) * (256 / 128));
  for (i64 i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0);
}

TEST(Bmm, ShiftedAccumulate) {
  MatrixI32 a(8, 128, 0);
  MatrixI32 b(128, 8, 0);
  a(0, 0) = 1;
  b(0, 0) = 1;
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  MatrixI32 c = make_padded_accumulator(pa, pb);
  bmm_accumulate(pa, pb, c, /*shift=*/0);
  bmm_accumulate(pa, pb, c, /*shift=*/3);
  EXPECT_EQ(c(0, 0), 1 + 8);
}

TEST(Bmm, LayoutMismatchThrows) {
  const BitMatrix wrong_a(8, 128, BitLayout::kColMajorK);
  const BitMatrix b(128, 8, BitLayout::kColMajorK);
  EXPECT_THROW(bmm(wrong_a, b), std::invalid_argument);
  const BitMatrix a(8, 128, BitLayout::kRowMajorK);
  const BitMatrix wrong_b(128, 8, BitLayout::kRowMajorK);
  EXPECT_THROW(bmm(a, wrong_b), std::invalid_argument);
}

TEST(Bmm, KExtentMismatchThrows) {
  const BitMatrix a(8, 128, BitLayout::kRowMajorK);
  const BitMatrix b(256, 8, BitLayout::kColMajorK);
  EXPECT_THROW(bmm(a, b), std::invalid_argument);
}

TEST(Bmm, SliceLogical) {
  MatrixI32 padded(16, 16, 9);
  const MatrixI32 s = slice_logical(padded, 3, 5);
  EXPECT_EQ(s.rows(), 3);
  EXPECT_EQ(s.cols(), 5);
  EXPECT_EQ(s(2, 4), 9);
}

/// Property: packed BMM equals reference for random shapes & densities.
class BmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(BmmProperty, RandomShapes) {
  Rng rng(static_cast<u64>(GetParam()) * 1337);
  const i64 m = rng.next_in(1, 60);
  const i64 k = rng.next_in(1, 400);
  const i64 n = rng.next_in(1, 40);
  const float da = rng.next_float(0.05f, 0.9f);
  const float db = rng.next_float(0.05f, 0.9f);
  const MatrixI32 a = random_binary(rng, m, k, da);
  const MatrixI32 b = random_binary(rng, k, n, db);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  BmmOptions jump;
  jump.zero_tile_jump = true;
  const MatrixI32 expect = matmul_reference(a, b);
  EXPECT_EQ(bmm(pa, pb), expect);
  EXPECT_EQ(bmm(pa, pb, jump), expect);
}

INSTANTIATE_TEST_SUITE_P(Random, BmmProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace qgtc
