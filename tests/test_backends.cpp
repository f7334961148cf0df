// Concurrency & dispatch tests for the ExecutionContext refactor: every
// substrate backend must produce bit-identical results vs kScalar on
// randomized (s, t)-bit MMs, engine stats and counter totals must be
// invariant to inter_batch_threads, and the fixed parallel_for_dynamic must
// visit each iteration exactly once for any chunk size.
#include <gtest/gtest.h>

#include <atomic>

#include "api/session.hpp"
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
  EXPECT_EQ(tcsim::parse_backend("simd"), tcsim::BackendKind::kSimd);
  EXPECT_EQ(tcsim::parse_backend("blocked"), tcsim::BackendKind::kBlocked);
  EXPECT_THROW((void)tcsim::parse_backend("cuda"), std::invalid_argument);
}

TEST(Backends, PanelWidths) {
  EXPECT_EQ(tcsim::backend(tcsim::BackendKind::kScalar).panel_width(), 1);
  EXPECT_EQ(tcsim::backend(tcsim::BackendKind::kSimd).panel_width(), 1);
  EXPECT_GT(tcsim::backend(tcsim::BackendKind::kBlocked).panel_width(), 1);
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

  for (const auto kind :
       {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
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

  for (const auto kind :
       {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.zero_tile_jump = true;
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt), want);
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossBit, opt), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BackendEquivalence, ::testing::Range(0, 10));

TEST(Backends, XorCombineMatchesScalarAcrossBackends) {
  Rng rng(77);
  const MatrixI32 a = random_binary(rng, 24, 200, 0.5f);
  const MatrixI32 b = random_binary(rng, 200, 16, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);

  MatrixI32 results[3];
  int i = 0;
  for (const auto kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.op = tcsim::BmmaOp::kXor;
    results[i++] = bmm(pa, pb, opt);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
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
  tcsim::reset_counters();
  (void)bmm(pa, pb, opt);
  EXPECT_EQ(tcsim::snapshot_counters().bmma_ops, 0u)
      << "private-context work leaked into the global registry";
  const tcsim::Counters c = ctx.counters();
  EXPECT_EQ(c.bmma_ops, 2u);  // 2 row tiles x 1 col tile x 1 K tile
  ctx.reset_counters();
  EXPECT_EQ(ctx.counters().bmma_ops, 0u);
}

TEST(Backends, ApiSessionRoutesCounters) {
  Rng rng(6);
  MatrixF a(12, 100), b(100, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 4, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 4, api::BitTensor::Side::kRight);

  const api::Session session(tcsim::BackendKind::kSimd);
  const MatrixI32 got = session.mm_int(ta, tb);
  EXPECT_GT(session.counters().bmma_ops, 0u);
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

  core::QgtcEngine engine(ds, cfg);
  engine.set_execution(tcsim::BackendKind::kBlocked, 1);
  const core::EngineStats serial = engine.run_quantized(1);
  for (const int threads : {2, 3, 6}) {
    engine.set_execution(tcsim::BackendKind::kBlocked, threads);
    const core::EngineStats par = engine.run_quantized(1);
    EXPECT_EQ(par.bmma_ops, serial.bmma_ops) << threads << " threads";
    EXPECT_EQ(par.tiles_jumped, serial.tiles_jumped) << threads << " threads";
    EXPECT_EQ(par.nodes, serial.nodes) << threads << " threads";
    EXPECT_EQ(par.batches, serial.batches) << threads << " threads";
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
    for (const auto kind :
         {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
      const tcsim::ExecutionContext ctx(kind);
      EXPECT_EQ(engine.model().forward_prepared(bd.adj_tiles, bd.x_planes,
                                                nullptr, &ctx),
                want)
          << tcsim::backend_name(kind);
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

TEST(ParallelFor, WorkersCoverRangeWithBoundedWorkerIds) {
  const i64 n = 64;
  const int threads = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<int> bad_worker{0};
  parallel_for_workers(0, n, threads, [&](i64 i, int w) {
    if (w < 0 || w >= threads) bad_worker.fetch_add(1);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_EQ(bad_worker.load(), 0);
  for (i64 i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
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
