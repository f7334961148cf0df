// Randomized end-to-end cross-checks ("fuzz"): for random shapes, bit
// widths, densities, layouts and kernel options, the entire packed pipeline
// must agree exactly with naive integer references. These are the
// highest-leverage tests in the repo — any packing/padding/tiling/epilogue
// bug anywhere in the stack surfaces here.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc {
namespace {

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits, float zero_frac) {
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.next_bool(zero_frac)
                      ? 0
                      : static_cast<i32>(rng.next_below(range));
  }
  return m;
}

/// One fuzz round: random (m, k, n, s, t, densities, jump) — full pipeline
/// vs integer reference.
class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, AnyBitPipelineMatchesReference) {
  Rng rng(static_cast<u64>(GetParam()) * 7919 + 13);
  const i64 m = rng.next_in(1, 70);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 50);
  const int s = static_cast<int>(rng.next_in(1, 6));
  const int t = static_cast<int>(rng.next_in(1, 6));
  const float za = rng.next_float(0.0f, 0.9f);
  const float zb = rng.next_float(0.0f, 0.9f);

  const MatrixI32 a = random_codes(rng, m, k, s, za);
  const MatrixI32 b = random_codes(rng, k, n, t, zb);
  const MatrixI32 expect = matmul_reference(a, b);

  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);

  BmmOptions opt;
  opt.zero_tile_jump = rng.next_bool(0.5f);
  EXPECT_EQ(bitmm_to_int(pa, pb, opt), expect);
  EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), expect);

  // Fused to-bit output vs manual requantization of the reference.
  const int out_bits = static_cast<int>(rng.next_in(1, 8));
  i32 mx = 0;
  for (i64 i = 0; i < expect.size(); ++i) mx = std::max(mx, expect.data()[i]);
  FusedEpilogue epi;
  epi.rshift = calibrate_rshift(mx, out_bits);
  const auto packed = bitmm_fused_bit(pa, pb, out_bits, epi, opt);
  const MatrixI32 got = packed.compose();
  const i32 qmax = (1 << out_bits) - 1;
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      ASSERT_EQ(got(i, j), std::min(expect(i, j) >> epi.rshift, qmax))
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST_P(PipelineFuzz, AggregationModesAndJumpAgree) {
  Rng rng(static_cast<u64>(GetParam()) * 104729 + 7);
  const i64 nodes = rng.next_in(1, 200);
  const i64 d = rng.next_in(1, 40);
  const int s = static_cast<int>(rng.next_in(1, 8));

  // Block-sparse adjacency: some whole row-blocks zero.
  MatrixI32 adj(nodes, nodes, 0);
  for (i64 i = 0; i < nodes; ++i) {
    if ((i / 8) % 3 == 0) continue;  // zero row-block
    for (i64 j = 0; j < nodes; ++j) adj(i, j) = rng.next_bool(0.2f) ? 1 : 0;
  }
  const MatrixI32 x = random_codes(rng, nodes, d, s, 0.3f);
  const MatrixI32 expect = matmul_reference(adj, x);

  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);
  const TileSparseBitMatrix tiles = TileSparseBitMatrix::from_bit_matrix(pa);

  for (const bool jump : {false, true}) {
    BmmOptions opt;
    opt.zero_tile_jump = jump;
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossBit, opt), expect);
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt), expect);
  }
  // Structural jumping over the tile-CSR form of the same adjacency.
  EXPECT_EQ(aggregate_1bit(tiles, px, ReuseMode::kCrossBit), expect);
  EXPECT_EQ(aggregate_1bit(tiles, px, ReuseMode::kCrossTile), expect);
}

INSTANTIATE_TEST_SUITE_P(Rounds, PipelineFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace qgtc
