// Resident-set tests: a streaming engine pins prepared epoch batches up to
// `cache_budget_bytes` and takes them from their slots in every warm epoch.
// The invariant everything hangs on — logits and substrate counters are
// bit-identical to a zero-budget engine — is checked across backends and
// run modes, at full, partial and too-small budgets, and under concurrent
// streaming prepare workers (the TSan surface).
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"

namespace qgtc {
namespace {

Dataset cache_dataset() {
  DatasetSpec spec{"cache-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

core::EngineConfig cache_config(bool streaming, int bits = 3) {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  cfg.mode.epoch = streaming ? core::RunMode::Epoch::kStreaming
                             : core::RunMode::Epoch::kPrecomputed;
  return cfg;
}

/// The 16-batch streaming fixture: many small batches, so a budget between
/// zero and one epoch pins some of them and not others.
core::EngineConfig many_batches(core::EngineConfig cfg) {
  cfg.num_partitions = 32;
  cfg.batch_size = 2;
  return cfg;
}

/// Bytes of one epoch's prepared batches, as a streaming epoch pins them.
i64 epoch_prepared_bytes(const core::QgtcEngine& engine) {
  i64 bytes = 0;
  for (i64 i = 0; i < engine.num_batches(); ++i) {
    bytes += engine.prepare_batch(i, /*build_fp32_csr=*/false)->prepared_bytes();
  }
  return bytes;
}

/// Runs `rounds` single-epoch runs of `engine` next to a zero-budget twin and
/// checks every run's logits and counters are bit-identical to the twin's.
/// Returns each run's stats.
std::vector<core::EngineStats> runs_match_zero_budget(
    const Dataset& ds, core::QgtcEngine& engine, int rounds) {
  core::EngineConfig off_cfg = engine.config();
  off_cfg.cache_budget_bytes = 0;
  core::QgtcEngine off(ds, off_cfg);
  std::vector<core::EngineStats> out;
  for (int r = 0; r < rounds; ++r) {
    std::vector<MatrixI32> la, lb;
    out.push_back(engine.run_quantized(1, &la));
    const core::EngineStats sb = off.run_quantized(1, &lb);
    EXPECT_EQ(la, lb) << "run " << r;
    EXPECT_EQ(out.back().bmma_ops, sb.bmma_ops) << "run " << r;
    EXPECT_EQ(out.back().tiles_jumped, sb.tiles_jumped) << "run " << r;
  }
  return out;
}

TEST(ResidentSet, ParityAcrossBackendsAndModes) {
  const Dataset ds = cache_dataset();
  for (const auto backend : tcsim::all_backends()) {
    for (const bool streaming : {false, true}) {
      core::EngineConfig off = cache_config(streaming);
      off.backend = backend;
      core::EngineConfig on = off;
      on.cache_budget_bytes = i64{256} << 20;
      core::QgtcEngine engine_off(ds, off);
      core::QgtcEngine engine_on(ds, on);
      std::vector<MatrixI32> la, lb;
      const core::EngineStats sa = engine_off.run_quantized(2, &la);
      const core::EngineStats sb = engine_on.run_quantized(2, &lb);
      ASSERT_EQ(la, lb) << "backend=" << static_cast<int>(backend)
                        << " streaming=" << streaming;
      EXPECT_EQ(sa.bmma_ops, sb.bmma_ops);
      EXPECT_EQ(sa.tiles_jumped, sb.tiles_jumped);
      // Warm epochs take every batch from the resident set (precomputed
      // engines fill it at construction whatever the budget) and read
      // nothing from the feature source.
      EXPECT_EQ(sb.cache_misses, 0);
      EXPECT_EQ(sb.cache_hits, sb.batches);
      EXPECT_EQ(sb.prepare_bytes_read, 0);
    }
  }
}

TEST(ResidentSet, OneEpochBudgetHitsEveryBatchInEveryWarmEpoch) {
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = many_batches(cache_config(true));
  core::QgtcEngine probe(ds, cfg);
  ASSERT_EQ(probe.num_batches(), 16);
  const i64 epoch_bytes = epoch_prepared_bytes(probe);
  ASSERT_GT(epoch_bytes, 0);

  cfg.cache_budget_bytes = epoch_bytes;
  core::QgtcEngine engine(ds, cfg);
  for (const core::EngineStats& s : runs_match_zero_budget(ds, engine, 3)) {
    EXPECT_EQ(s.cache_hits, s.batches);
    EXPECT_EQ(s.cache_misses, 0);
    EXPECT_EQ(s.prepare_bytes_read, 0);
    EXPECT_EQ(s.cache_resident_bytes, epoch_bytes);
  }
  // The accounting pass ships the pinned batches without re-preparing them.
  const core::EngineStats t = engine.transfer_accounting();
  EXPECT_EQ(t.prepare_bytes_read, 0);
  EXPECT_EQ(t.packed_bytes, probe.transfer_accounting().packed_bytes);
}

TEST(ResidentSet, HalfEpochBudgetPinsAFixedSet) {
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = many_batches(cache_config(true));
  const i64 budget = epoch_prepared_bytes(core::QgtcEngine(ds, cfg)) / 2;
  cfg.cache_budget_bytes = budget;
  core::QgtcEngine engine(ds, cfg);
  const std::vector<core::EngineStats> runs =
      runs_match_zero_budget(ds, engine, 3);
  const i64 hits = runs.front().cache_hits;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, runs.front().batches);
  for (const core::EngineStats& s : runs) {
    EXPECT_EQ(s.cache_hits, hits);  // pinned slots are never evicted
    EXPECT_EQ(s.cache_hits + s.cache_misses, s.batches);
    EXPECT_GT(s.prepare_bytes_read, 0);
    EXPECT_GT(s.cache_resident_bytes, 0);
    EXPECT_LE(s.cache_resident_bytes, budget);
  }
}

TEST(ResidentSet, ZeroBudgetPinsNothing) {
  const Dataset ds = cache_dataset();
  core::QgtcEngine engine(ds, cache_config(true));  // budget 0
  const core::EngineStats s = engine.run_quantized(2);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(s.cache_misses, s.batches);
  EXPECT_EQ(s.cache_resident_bytes, 0);
  EXPECT_GT(s.prepare_bytes_read, 0);
}

TEST(ResidentSet, BudgetSmallerThanOneBatchPinsNothing) {
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = cache_config(true);
  cfg.cache_budget_bytes = 512;  // smaller than any batch
  core::QgtcEngine tiny(ds, cfg);
  for (const core::EngineStats& s : runs_match_zero_budget(ds, tiny, 2)) {
    EXPECT_EQ(s.cache_hits, 0);
    EXPECT_EQ(s.cache_misses, s.batches);
    EXPECT_EQ(s.cache_resident_bytes, 0);
  }
}

TEST(ResidentSet, ConcurrentStreamingPrepareWorkersStayBitIdentical) {
  // Two prepare workers race to pin under a budget that holds half the
  // epoch, while two compute workers consume the shared refs — the TSan job
  // runs this. The reservation must never overshoot the budget, and the set
  // pinned by the first epoch serves every later one.
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = many_batches(cache_config(true));
  cfg.mode.prepare_threads = 2;
  cfg.inter_batch_threads = 2;
  cfg.mode.pipeline_depth = 2;
  for (const i64 divisor : {1, 2}) {
    cfg.cache_budget_bytes =
        epoch_prepared_bytes(core::QgtcEngine(ds, cfg)) / divisor;
    core::QgtcEngine engine(ds, cfg);
    const std::vector<core::EngineStats> runs =
        runs_match_zero_budget(ds, engine, 2);
    for (const core::EngineStats& s : runs) {
      EXPECT_EQ(s.cache_hits, runs.front().cache_hits);
      EXPECT_EQ(s.cache_hits + s.cache_misses, s.batches);
      EXPECT_LE(s.cache_resident_bytes, cfg.cache_budget_bytes);
    }
    if (divisor == 1) EXPECT_EQ(runs.front().cache_hits, runs.front().batches);
  }
}

}  // namespace
}  // namespace qgtc
