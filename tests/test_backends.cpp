// Concurrency & dispatch tests for the ExecutionContext refactor: every
// substrate backend must produce bit-identical results vs kScalar on
// randomized (s, t)-bit MMs, engine stats and counter totals must be
// invariant to inter_batch_threads, and the fixed parallel_for_dynamic must
// visit each iteration exactly once for any chunk size.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <string>
#include <tuple>

#include "api/bit_tensor_api.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "kernels/anybit_mm.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc {
namespace {

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

MatrixI32 random_binary(Rng& rng, i64 rows, i64 cols, float density) {
  MatrixI32 m(rows, cols);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_bool(density) ? 1 : 0;
  return m;
}

TEST(Backends, RegistryNamesAndParsing) {
  for (const auto k : tcsim::all_backends()) {
    EXPECT_EQ(tcsim::backend(k).kind(), k);
    EXPECT_NE(std::string(tcsim::backend_name(k)), "");
  }
  EXPECT_EQ(tcsim::parse_backend("scalar"), tcsim::BackendKind::kScalar);
  EXPECT_EQ(tcsim::parse_backend("blocked"), tcsim::BackendKind::kBlocked);
  EXPECT_THROW((void)tcsim::parse_backend("cuda"), std::invalid_argument);
  EXPECT_THROW((void)tcsim::parse_backend("simd"), std::invalid_argument);
}

/// Property: every backend's bitmm_to_int / fused / aggregate results are
/// bit-identical to kScalar's on randomized shapes, bitwidths and densities.
class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, RandomAnyBitMms) {
  Rng rng(static_cast<u64>(GetParam()) * 9091 + 7);
  const i64 m = rng.next_in(1, 70);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 48);
  const int s = static_cast<int>(rng.next_in(1, 5));
  const int t = static_cast<int>(rng.next_in(1, 5));
  const MatrixI32 a = random_codes(rng, m, k, s);
  const MatrixI32 b = random_codes(rng, k, n, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);

  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  BmmOptions sopt;
  sopt.ctx = &scalar;
  const MatrixI32 want = bitmm_to_int(pa, pb, sopt);
  EXPECT_EQ(want, matmul_reference(a, b));

  for (const auto kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    EXPECT_EQ(bitmm_to_int(pa, pb, opt), want) << tcsim::backend_name(kind);
    EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), want)
        << tcsim::backend_name(kind);

    opt.zero_tile_jump = true;
    EXPECT_EQ(bitmm_to_int(pa, pb, opt), want)
        << tcsim::backend_name(kind) << " with zero-tile jumping";
  }
}

TEST_P(BackendEquivalence, RandomAggregations) {
  Rng rng(static_cast<u64>(GetParam()) * 4243 + 1);
  const i64 nodes = rng.next_in(4, 80);
  const i64 dim = rng.next_in(1, 40);
  const int s = static_cast<int>(rng.next_in(1, 6));
  const MatrixI32 adj = random_binary(rng, nodes, nodes, 0.2f);
  const MatrixI32 x = random_codes(rng, nodes, dim, s);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);

  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  BmmOptions sopt;
  sopt.ctx = &scalar;
  sopt.zero_tile_jump = true;
  const MatrixI32 want = aggregate_1bit(pa, px, ReuseMode::kCrossTile, sopt);
  EXPECT_EQ(want, matmul_reference(adj, x));

  for (const auto kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.zero_tile_jump = true;
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt), want);
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossBit, opt), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BackendEquivalence, ::testing::Range(0, 10));

/// An A operand packed with PadPolicy::kOperand128 holds pad128(M) rows, but
/// a product has only pad8(M) / 8 row blocks: every sweep must stay inside a
/// pad8(M)-row accumulator and count the same ops as the cross-bit path.
TEST(Backends, Operand128ASweepsPad8RowBlocks) {
  Rng rng(31);
  const i64 m = 24, k = 200, n = 20;
  const MatrixI32 a1 = random_binary(rng, m, k, 0.5f);
  const MatrixI32 b1 = random_binary(rng, k, n, 0.5f);
  const BitMatrix pa1 =
      pack_nonzero(a1, BitLayout::kRowMajorK, PadPolicy::kOperand128);
  const BitMatrix pb1 = pack_nonzero(b1, BitLayout::kColMajorK);
  ASSERT_EQ(pa1.padded_rows(), 128);
  const MatrixI32 a = random_codes(rng, m, k, 3);
  const MatrixI32 b = random_codes(rng, k, n, 2);
  const auto pa = StackedBitTensor::decompose(a, 3, BitLayout::kRowMajorK,
                                              PadPolicy::kOperand128);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  for (const auto kind : tcsim::all_backends()) {
    tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    const std::string where = tcsim::backend_name(kind);

    EXPECT_EQ(bmm(pa1, pb1, opt), matmul_reference(a1, b1)) << where;
    MatrixI32 c(pad8(m), pb1.padded_cols(), 0);
    bmm_accumulate(pa1, pb1, c, /*shift=*/0, opt);
    EXPECT_EQ(slice_logical(c, m, n), matmul_reference(a1, b1)) << where;

    ctx.reset_counters();
    const MatrixI32 cross_bit = bitmm_to_int(pa, pb, opt);
    const u64 cross_bit_ops = ctx.counters().bmma_ops;
    ctx.reset_counters();
    EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), cross_bit) << where;
    EXPECT_EQ(ctx.counters().bmma_ops, cross_bit_ops) << where;
    EXPECT_EQ(cross_bit, matmul_reference(a, b)) << where;
  }
}

TEST(Backends, PrivateCountersIsolatedFromGlobal) {
  Rng rng(5);
  const MatrixI32 a = random_binary(rng, 16, 128, 0.5f);
  const MatrixI32 b = random_binary(rng, 128, 8, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);

  tcsim::ExecutionContext ctx(tcsim::BackendKind::kBlocked,
                              /*private_counters=*/true);
  BmmOptions opt;
  opt.ctx = &ctx;
  const auto& global = tcsim::ExecutionContext::default_context();
  const u64 global_before = global.counters().bmma_ops;
  (void)bmm(pa, pb, opt);
  EXPECT_EQ(global.counters().bmma_ops, global_before)
      << "private-context work leaked into the default context";
  const tcsim::Counters c = ctx.counters();
  EXPECT_EQ(c.bmma_ops, 2u);  // 2 row tiles x 1 col tile x 1 K tile
  ctx.reset_counters();
  EXPECT_EQ(ctx.counters().bmma_ops, 0u);
}

TEST(Backends, ApiCtxRoutesCounters) {
  Rng rng(6);
  MatrixF a(12, 100), b(100, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 4, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 4, api::BitTensor::Side::kRight);

  // With opt.ctx set, every API product counts into that context alone.
  const tcsim::ExecutionContext ctx(tcsim::BackendKind::kBlocked);
  BmmOptions opt;
  opt.ctx = &ctx;
  const auto& global = tcsim::ExecutionContext::default_context();
  const u64 global_before = global.counters().bmma_ops;
  const MatrixI32 got = api::bitMM2Int(ta, tb, opt);
  const u64 int_ops = ctx.counters().bmma_ops;
  EXPECT_GT(int_ops, 0u);
  (void)api::bitMM2Bit(ta, tb, 4, opt);
  EXPECT_GT(ctx.counters().bmma_ops, int_ops);
  EXPECT_EQ(global.counters().bmma_ops, global_before)
      << "ctx-pinned API work leaked into the default context";
  EXPECT_EQ(got, api::bitMM2Int(ta, tb));
}

TEST(Backends, EngineStatsInvariantToInterBatchThreads) {
  DatasetSpec spec{"backend-test", 1200, 8000, 16, 4, 16, 123};
  const Dataset ds = generate_dataset(spec);
  core::EngineConfig cfg;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 12;
  cfg.batch_size = 2;  // 6 batches

  // Both epoch modes run on the one executor; its compute-worker count must
  // change neither the per-batch logits nor any counter.
  for (const core::RunMode mode :
       {core::RunMode::precomputed(), core::RunMode::streaming_pipeline(2, 2)}) {
    cfg.mode = mode;
    core::QgtcEngine engine(ds, cfg);
    engine.set_execution(tcsim::BackendKind::kBlocked, 1);
    std::vector<MatrixI32> serial_logits;
    const core::EngineStats serial = engine.run_quantized(1, &serial_logits);
    for (const int threads : {2, 3, 6}) {
      engine.set_execution(tcsim::BackendKind::kBlocked, threads);
      std::vector<MatrixI32> logits;
      const core::EngineStats par = engine.run_quantized(1, &logits);
      const std::string where = std::to_string(threads) + " threads, " +
                                (mode.streaming() ? "streaming" : "precomputed");
      EXPECT_EQ(par.bmma_ops, serial.bmma_ops) << where;
      EXPECT_EQ(par.tiles_jumped, serial.tiles_jumped) << where;
      EXPECT_EQ(par.nodes, serial.nodes) << where;
      EXPECT_EQ(par.batches, serial.batches) << where;
      ASSERT_EQ(logits.size(), serial_logits.size()) << where;
      for (std::size_t b = 0; b < logits.size(); ++b) {
        EXPECT_EQ(logits[b], serial_logits[b]) << where << ", batch " << b;
      }
    }
  }
}

TEST(Backends, EngineOutputsIdenticalAcrossBackendsAndThreads) {
  DatasetSpec spec{"backend-test2", 800, 5000, 16, 4, 16, 321};
  const Dataset ds = generate_dataset(spec);
  core::EngineConfig cfg;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = 8;
  cfg.batch_size = 2;
  const core::QgtcEngine engine(ds, cfg);

  // Per-batch logits must not depend on the backend or on which context ran
  // the pass — forward passes are pure given (model, batch).
  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  for (const auto& bdp : engine.batch_data()) {
    const auto& bd = *bdp;
    const MatrixI32 want = engine.model().forward_prepared(
        bd.adj_tiles, bd.x_planes, nullptr, &scalar);
    for (const auto kind : tcsim::all_backends()) {
      const tcsim::ExecutionContext ctx(kind);
      EXPECT_EQ(engine.model().forward_prepared(bd.adj_tiles, bd.x_planes,
                                                nullptr, &ctx),
                want)
          << tcsim::backend_name(kind);
    }
  }
}

/// Every Counters field, for one comparison.
auto counter_fields(const tcsim::Counters& c) {
  return std::make_tuple(c.bmma_ops, c.frag_loads_a, c.frag_loads_b, c.frag_stores,
                         c.tiles_jumped, c.int32_bytes_avoided, c.saturated);
}

// A fused sweep notes its counters once, from sums the calling thread makes
// after the loop, so no count may depend on the team that ran it: one
// thread, four, or a nested call inside a team of two (whose loops run in
// the caller without opening a region). Both sweep axes run: the
// row-parallel kRowMajorK output and the column-parallel kColMajorK one,
// each with more than kSerialCutoff row blocks and column tiles, zero-tile
// jumps and clamped values.
TEST(Backends, SweepCountersIndependentOfTeam) {
  const i64 m = 200, k = 300, n = 136;
  Rng rng(41);
  MatrixI32 a = random_codes(rng, m, k, 3);
  for (const i64 zero_block : {0, 7, 8, 24}) {
    for (i64 r = zero_block * kTileM; r < std::min(m, (zero_block + 1) * kTileM); ++r) {
      for (i64 c = 0; c < k; ++c) a(r, c) = 0;
    }
  }
  const MatrixI32 b = random_codes(rng, k, n, 2);
  const auto pa = StackedBitTensor::decompose(a, 3, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  FusedEpilogue epi;
  epi.act = tcsim::Activation::kRelu;
  epi.rshift = 6;
  const int out_bits = 4;

  struct Run {
    tcsim::Counters counters;
    MatrixI32 out;
  };
  const auto sweep = [&](BitLayout layout) {
    const tcsim::ExecutionContext ctx(tcsim::BackendKind::kBlocked);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.zero_tile_jump = true;
    Run r;
    r.out = bitmm_fused_bit(pa, pb, out_bits, epi, opt, PadPolicy::kTile8, layout)
                .compose();
    r.counters = ctx.counters();
    return r;
  };

  const int saved = omp_get_max_threads();
  for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
    const std::string where = layout == BitLayout::kRowMajorK ? "row" : "col";
    omp_set_num_threads(1);
    const Run serial = sweep(layout);
    EXPECT_GT(serial.counters.tiles_jumped, 0u) << where;
    EXPECT_GT(serial.counters.saturated, 0u) << where;
    omp_set_num_threads(4);
    const Run four = sweep(layout);
    Run nested[2];
#pragma omp parallel num_threads(2)
    nested[omp_get_thread_num()] = sweep(layout);
    omp_set_num_threads(saved);
    EXPECT_EQ(counter_fields(four.counters), counter_fields(serial.counters)) << where;
    EXPECT_EQ(four.out, serial.out) << where;
    for (const Run& r : nested) {
      EXPECT_EQ(counter_fields(r.counters), counter_fields(serial.counters))
          << where << " nested";
      EXPECT_EQ(r.out, serial.out) << where << " nested";
    }
  }
}

TEST(ParallelFor, DynamicVisitsEachIterationOnceForAnyChunk) {
  for (const i64 chunk : {1, 3, 7, 16, 50, 1000}) {
    const i64 n = 257;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for_dynamic(0, n, chunk, [&](i64 i) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, n);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (i64 i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " chunk " << chunk;
    }
  }
}

TEST(ParallelFor, DynamicHandlesEmptyAndNegativeRanges) {
  int calls = 0;
  parallel_for_dynamic(5, 5, 4, [&](i64) { ++calls; });
  parallel_for_dynamic(5, 3, 4, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Workspace, ArenaReusesStorageAcrossCalls) {
  Rng rng(9);
  const MatrixI32 a = random_binary(rng, 40, 256, 0.4f);
  const MatrixI32 b = random_binary(rng, 256, 24, 0.4f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  const MatrixI32 first = bmm(pa, pb);
  const std::size_t after_first = tcsim::thread_workspace().footprint_bytes();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(bmm(pa, pb), first);
  EXPECT_EQ(tcsim::thread_workspace().footprint_bytes(), after_first)
      << "same-shaped kernel calls should not grow the arena";
}

}  // namespace
}  // namespace qgtc
