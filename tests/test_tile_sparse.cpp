// Tile-sparse bit tensor tests: tile-CSR layout round-trips, the direct
// CSR->tile builder, sparse/dense kernel bit-identity across every substrate
// backend, counter consistency between flag-based (the dense kernels' inline
// §4.3 test) and structural zero-tile jumping, and the shrunken transfer
// accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/bit_tensor_api.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generator.hpp"
#include "kernels/anybit_mm.hpp"
#include "transfer/packing.hpp"

namespace qgtc {
namespace {

/// Tiles of a kRowMajorK matrix the §4.3 OR test finds nonzero.
i64 nonzero_tiles(const BitMatrix& m) {
  i64 n = 0;
  for (i64 tm = 0; tm < m.padded_rows() / kTileM; ++tm) {
    for (i64 tk = 0; tk < m.padded_cols() / kTileK; ++tk) {
      n += tcsim::tile_is_zero(m.row_words(tm * kTileM) + tk * kTileKWords,
                               m.k_words())
               ? 0
               : 1;
    }
  }
  return n;
}

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

/// Block-diagonal (the §4.1 batching structure) + optional Erdős–Rényi
/// noise: the adjacency patterns the sparse layout must handle.
MatrixI32 random_block_diagonal(Rng& rng, i64 n, i64 max_block, float density,
                                float er_noise) {
  MatrixI32 m(n, n, 0);
  i64 lo = 0;
  while (lo < n) {
    const i64 size = std::min<i64>(rng.next_in(1, max_block), n - lo);
    for (i64 i = lo; i < lo + size; ++i) {
      for (i64 j = lo; j < lo + size; ++j) {
        if (i == j || rng.next_bool(density)) m(i, j) = 1;
      }
    }
    lo += size;
  }
  if (er_noise > 0.0f) {
    for (i64 i = 0; i < m.size(); ++i) {
      if (rng.next_bool(er_noise)) m.data()[i] = 1;
    }
  }
  return m;
}

TEST(TileSparse, EmptyShapeAndAppendOrder) {
  TileSparseBitMatrix m(20, 300);
  EXPECT_EQ(m.padded_rows(), 24);
  EXPECT_EQ(m.padded_cols(), 384);
  EXPECT_EQ(m.tiles_m(), 3);
  EXPECT_EQ(m.tiles_k(), 3);
  EXPECT_EQ(m.nnz_tiles(), 0);

  u32* t = m.append_tile(0, 1);
  for (int w = 0; w < TileSparseBitMatrix::kTileWords; ++w) EXPECT_EQ(t[w], 0u);
  (void)m.append_tile(0, 2);
  (void)m.append_tile(2, 0);
  EXPECT_THROW((void)m.append_tile(1, 0), std::invalid_argument);  // tm back
  EXPECT_THROW((void)m.append_tile(2, 0), std::invalid_argument);  // tk repeat
  m.finalize();
  EXPECT_EQ(m.nnz_tiles(), 3);
  EXPECT_EQ(m.row_end(0) - m.row_begin(0), 2);
  EXPECT_EQ(m.row_end(1) - m.row_begin(1), 0);
  EXPECT_EQ(m.row_end(2) - m.row_begin(2), 1);
  EXPECT_DOUBLE_EQ(m.nonzero_ratio(), 3.0 / 9.0);
}

TEST(TileSparse, FromBitMatrixRoundTrip) {
  Rng rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    const i64 n = rng.next_in(1, 90);
    const i64 k = rng.next_in(1, 400);
    BitMatrix dense(n, k, BitLayout::kRowMajorK);
    const i64 bits = rng.next_in(0, n * k / 8 + 1);
    for (i64 s = 0; s < bits; ++s) {
      dense.set(rng.next_in(0, n - 1), rng.next_in(0, k - 1), true);
    }
    const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(dense);
    EXPECT_EQ(sparse.nnz_tiles(), nonzero_tiles(dense));

    const BitMatrix back = sparse.to_bit_matrix();
    ASSERT_EQ(back.lines(), dense.lines());
    ASSERT_EQ(back.k_words(), dense.k_words());
    for (i64 i = 0; i < back.lines() * back.k_words(); ++i) {
      ASSERT_EQ(back.data()[i], dense.data()[i]) << "word " << i;
    }
    for (int probe = 0; probe < 50; ++probe) {
      const i64 r = rng.next_in(0, n - 1);
      const i64 c = rng.next_in(0, k - 1);
      EXPECT_EQ(sparse.get(r, c), dense.get(r, c));
    }
  }
}

TEST(TileSparse, ColMajorRejected) {
  const BitMatrix m(256, 32, BitLayout::kColMajorK);
  EXPECT_THROW((void)TileSparseBitMatrix::from_bit_matrix(m),
               std::invalid_argument);
}

TEST(TileSparse, BatchBuilderMatchesDenseAdjacency) {
  DatasetSpec spec{"tile-sparse-test", 1200, 9000, 8, 4, 12, 31};
  const Dataset ds = generate_dataset(spec);
  const PartitionResult parts = partition_graph(ds.graph, 12, {});
  for (const SubgraphBatch& b : make_batches(parts, 4)) {
    const BitMatrix dense = build_batch_adjacency(ds.graph, b, true);
    const TileSparseBitMatrix sparse =
        build_batch_adjacency_tiles(ds.graph, b, true);
    EXPECT_EQ(sparse.rows(), dense.rows());
    EXPECT_EQ(sparse.padded_rows(), dense.padded_rows());
    EXPECT_EQ(sparse.padded_cols(), dense.padded_cols());
    EXPECT_EQ(sparse.nnz_tiles(), nonzero_tiles(dense));

    const BitMatrix back = sparse.to_bit_matrix();
    ASSERT_EQ(back.lines() * back.k_words(), dense.lines() * dense.k_words());
    for (i64 i = 0; i < back.lines() * back.k_words(); ++i) {
      ASSERT_EQ(back.data()[i], dense.data()[i]) << "word " << i;
    }
    // Block-diagonal batches must actually shrink.
    EXPECT_LT(sparse.bytes(), dense.bytes());
  }
}

/// Property over randomized block-diagonal + ER adjacencies: every backend's
/// sparse results are bit-identical to the dense path, and the structural
/// schedule reports the same bmma_ops / tiles_jumped as flag-based jumping.
class TileSparseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TileSparseEquivalence, SparseBmmBitIdenticalAllBackends) {
  Rng rng(static_cast<u64>(GetParam()) * 7151 + 3);
  const i64 n = rng.next_in(8, 140);
  const i64 cols = rng.next_in(1, 40);
  const MatrixI32 adj = random_block_diagonal(
      rng, n, 40, 0.3f, GetParam() % 2 == 0 ? 0.0f : 0.002f);
  const MatrixI32 b = random_codes(rng, n, cols, 1);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  const TileSparseBitMatrix sa = TileSparseBitMatrix::from_bit_matrix(pa);

  for (const auto kind : tcsim::all_backends()) {
    // Flag-based jumping with the inline per-tile test.
    const tcsim::ExecutionContext flag_ctx(kind);
    BmmOptions flag_opt;
    flag_opt.ctx = &flag_ctx;
    flag_opt.zero_tile_jump = true;
    const MatrixI32 want = bmm(pa, pb, flag_opt);

    // Dense, no jumping: zero tiles contribute nothing under AND.
    const MatrixI32 nojump = bmm(pa, pb, {});
    EXPECT_EQ(nojump, want) << tcsim::backend_name(kind);

    // Structural jumping over the tile-CSR.
    const tcsim::ExecutionContext sparse_ctx(kind);
    BmmOptions sparse_opt;
    sparse_opt.ctx = &sparse_ctx;
    EXPECT_EQ(bmm(sa, pb, sparse_opt), want) << tcsim::backend_name(kind);

    // Flag-based and structural schedules must execute the same tiles.
    const tcsim::Counters fc = flag_ctx.counters();
    const tcsim::Counters sc = sparse_ctx.counters();
    EXPECT_EQ(sc.bmma_ops, fc.bmma_ops) << tcsim::backend_name(kind);
    EXPECT_EQ(sc.tiles_jumped, fc.tiles_jumped) << tcsim::backend_name(kind);
  }
}

TEST_P(TileSparseEquivalence, SparseAggregationBitIdenticalAllBackends) {
  Rng rng(static_cast<u64>(GetParam()) * 331 + 17);
  const i64 n = rng.next_in(8, 120);
  const i64 dim = rng.next_in(1, 32);
  const int s = static_cast<int>(rng.next_in(1, 5));
  const MatrixI32 adj = random_block_diagonal(rng, n, 32, 0.25f, 0.001f);
  const MatrixI32 x = random_codes(rng, n, dim, s);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const TileSparseBitMatrix sa = TileSparseBitMatrix::from_bit_matrix(pa);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);

  for (const auto kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext flag_ctx(kind);
    BmmOptions flag_opt;
    flag_opt.ctx = &flag_ctx;
    flag_opt.zero_tile_jump = true;
    const MatrixI32 want = aggregate_1bit(pa, px, ReuseMode::kCrossTile, flag_opt);

    const tcsim::ExecutionContext sparse_ctx(kind);
    BmmOptions sparse_opt;
    sparse_opt.ctx = &sparse_ctx;
    EXPECT_EQ(aggregate_1bit(sa, px, ReuseMode::kCrossTile, sparse_opt), want)
        << tcsim::backend_name(kind);
    EXPECT_EQ(aggregate_1bit(sa, px, ReuseMode::kCrossBit, sparse_opt), want)
        << tcsim::backend_name(kind);

    // Cross-tile flag-based vs cross-tile structural schedule parity.
    const tcsim::ExecutionContext f2(kind), s2(kind);
    BmmOptions fo, so;
    fo.ctx = &f2;
    fo.zero_tile_jump = true;
    so.ctx = &s2;
    (void)aggregate_1bit(pa, px, ReuseMode::kCrossTile, fo);
    (void)aggregate_1bit(sa, px, ReuseMode::kCrossTile, so);
    EXPECT_EQ(s2.counters().bmma_ops, f2.counters().bmma_ops);
    EXPECT_EQ(s2.counters().tiles_jumped, f2.counters().tiles_jumped);

    // Fused to-bit aggregation (the hidden-layer path).
    FusedEpilogue epi;
    epi.act = tcsim::Activation::kRelu;
    epi.rshift = 2;
    const auto dense_out =
        aggregate_fused_bit(pa, px, s, epi, flag_opt, PadPolicy::kTile8);
    const auto sparse_out =
        aggregate_fused_bit(sa, px, s, epi, sparse_opt, PadPolicy::kTile8);
    EXPECT_EQ(sparse_out.compose(), dense_out.compose())
        << tcsim::backend_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TileSparseEquivalence, ::testing::Range(0, 8));

TEST(TileSparse, ApiSparseBitMM2IntMatchesDense) {
  Rng rng(23);
  const MatrixI32 adj = random_block_diagonal(rng, 60, 24, 0.3f, 0.0f);
  const MatrixI32 x = random_codes(rng, 60, 12, 3);
  const TileSparseBitMatrix sa = TileSparseBitMatrix::from_bit_matrix(
      pack_nonzero(adj, BitLayout::kRowMajorK));
  const auto a_t = api::BitTensor::from_quantized(adj, 1, api::BitTensor::Side::kLeft);
  const auto b_t = api::BitTensor::from_quantized(x, 3, api::BitTensor::Side::kRight);
  EXPECT_EQ(api::bitMM2Int(sa, b_t), api::bitMM2Int(a_t, b_t));
}

TEST(TileSparse, TransferAccountingShipsNonzeroFootprint) {
  DatasetSpec spec{"sparse-transfer-test", 1500, 10000, 16, 4, 12, 9};
  const Dataset ds = generate_dataset(spec);
  core::EngineConfig cfg;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 12;
  cfg.batch_size = 4;

  core::QgtcEngine engine(ds, cfg);

  // The epoch ships the tile-CSRs — less than the dense bit planes the same
  // batches would occupy.
  i64 csr_bytes = 0, dense_bytes = 0;
  for (const auto& b : engine.batch_data()) {
    csr_bytes += b->adj_tiles.bytes();
    dense_bytes += b->adj_tiles.padded_rows() * b->adj_tiles.padded_cols() / 8;
  }
  const auto st = engine.transfer_accounting();
  EXPECT_EQ(st.adj_bytes, csr_bytes);
  EXPECT_LT(st.adj_bytes, dense_bytes);

  // Per-batch accounting formula: payload + u32 col indices + row offsets.
  transfer::PcieModel pcie;
  transfer::StagingBuffer staging;
  const auto& bd = *engine.batch_data().front();
  const auto packed =
      transfer::pack_batch_tiles(bd.adj_tiles, bd.x_planes, staging, pcie);
  const i64 want = bd.adj_tiles.nnz_tiles() * 128 +
                   (bd.adj_tiles.nnz_tiles() + bd.adj_tiles.tiles_m() + 1) * 4;
  EXPECT_EQ(packed.adjacency_bytes, want);
  EXPECT_EQ(packed.adjacency_bytes, bd.adj_tiles.bytes());
  EXPECT_EQ(staging.bytes(), packed.total_bytes);
}

}  // namespace
}  // namespace qgtc
