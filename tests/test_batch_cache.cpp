// BatchCache tests: LRU/byte-budget mechanics at the unit level, and the
// engine-level invariant the whole PR hangs on — logits and substrate
// counters are bit-identical with the cache on vs off, across backends and
// run modes, including after evictions and under
// concurrent streaming prepare workers (the TSan surface).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "store/batch_cache.hpp"

namespace qgtc {
namespace {

SubgraphBatch make_batch(i32 first, i32 count) {
  SubgraphBatch b;
  for (i32 v = first; v < first + count; ++v) b.nodes.push_back(v);
  b.part_bounds = {0, count};
  return b;
}

std::size_t shard_of(u64 h) { return static_cast<std::size_t>((h >> 56) % 8); }

TEST(BatchCache, ZeroBudgetIsPassThrough) {
  store::BatchCache<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  const SubgraphBatch b = make_batch(0, 4);
  cache.insert(b, 1, store::kCapPlanes, 16, std::make_shared<const int>(7));
  EXPECT_EQ(cache.lookup(b, 1, store::kCapPlanes), nullptr);
  const store::BatchCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);  // disabled lookups are not even counted
  EXPECT_EQ(s.inserts, 0);
  EXPECT_EQ(s.entries, 0);
}

TEST(BatchCache, OversizedEntryNeverInserted) {
  store::BatchCache<int> cache(800);  // shard budget 100
  const SubgraphBatch b = make_batch(0, 4);
  cache.insert(b, 1, store::kCapPlanes, 101, std::make_shared<const int>(7));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.lookup(b, 1, store::kCapPlanes), nullptr);
  // At the budget boundary it fits.
  cache.insert(b, 1, store::kCapPlanes, 100, std::make_shared<const int>(7));
  EXPECT_NE(cache.lookup(b, 1, store::kCapPlanes), nullptr);
}

TEST(BatchCache, HitRequiresFingerprintAndMembership) {
  store::BatchCache<int> cache(1 << 20);
  const SubgraphBatch b = make_batch(0, 4);
  cache.insert(b, /*fingerprint=*/1, store::kCapPlanes, 16,
               std::make_shared<const int>(7));
  const auto hit = cache.lookup(b, 1, store::kCapPlanes);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);
  // Different quantization config -> different fingerprint -> miss.
  EXPECT_EQ(cache.lookup(b, 2, store::kCapPlanes), nullptr);
  // Different membership -> miss.
  EXPECT_EQ(cache.lookup(make_batch(1, 4), 1, store::kCapPlanes), nullptr);
}

TEST(BatchCache, CapabilityMaskGatesHitsAndUpgradesReplace) {
  store::BatchCache<int> cache(1 << 20);
  const SubgraphBatch b = make_batch(0, 4);
  cache.insert(b, 1, store::kCapPlanes, 16, std::make_shared<const int>(1));
  // Planes-only entry cannot serve a caller needing the fp32 CSR too.
  EXPECT_EQ(cache.lookup(b, 1, store::kCapPlanes | store::kCapFp32Csr),
            nullptr);
  // The richer rebuild replaces the entry (no duplicate for the same key).
  cache.insert(b, 1, store::kCapPlanes | store::kCapFp32Csr, 24,
               std::make_shared<const int>(2));
  EXPECT_EQ(cache.stats().entries, 1);
  const auto rich = cache.lookup(b, 1, store::kCapPlanes | store::kCapFp32Csr);
  ASSERT_NE(rich, nullptr);
  EXPECT_EQ(*rich, 2);
  // ...and still covers planes-only callers.
  EXPECT_NE(cache.lookup(b, 1, store::kCapPlanes), nullptr);
}

TEST(BatchCache, EvictionThenRehitReturnsFreshValue) {
  // Craft two batches that land in the SAME shard so the second insert must
  // evict the first (shard budget fits exactly one entry).
  const u64 fp = 9;
  const SubgraphBatch first = make_batch(0, 4);
  const std::size_t target = shard_of(store::hash_batch_key(first, fp));
  SubgraphBatch second;
  for (i32 start = 100; start < 10000; ++start) {
    second = make_batch(start, 4);
    if (shard_of(store::hash_batch_key(second, fp)) == target) break;
  }
  ASSERT_EQ(shard_of(store::hash_batch_key(second, fp)), target);

  store::BatchCache<int> cache(8 * 150);  // shard budget 150, entries are 100
  cache.insert(first, fp, store::kCapPlanes, 100,
               std::make_shared<const int>(1));
  // A consumer holding the value keeps it alive across the eviction.
  const auto held = cache.lookup(first, fp, store::kCapPlanes);
  ASSERT_NE(held, nullptr);
  cache.insert(second, fp, store::kCapPlanes, 100,
               std::make_shared<const int>(2));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(*held, 1);  // shared_ptr ownership survived the eviction
  // Evicted key misses; re-inserting (the re-prepare) re-hits with the
  // fresh value.
  EXPECT_EQ(cache.lookup(first, fp, store::kCapPlanes), nullptr);
  cache.insert(first, fp, store::kCapPlanes, 100,
               std::make_shared<const int>(3));
  const auto rehit = cache.lookup(first, fp, store::kCapPlanes);
  ASSERT_NE(rehit, nullptr);
  EXPECT_EQ(*rehit, 3);
}

// ------------------------------------------------------------------------
// Engine-level bit-identity: cache on vs off.

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

TEST(BatchCacheEngine, ParityAcrossBackendsAndModes) {
  const Dataset ds = cache_dataset();
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
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
      if (streaming) {
        // Warm epochs (the timed rounds) are all hits: every lookup in the
        // stats delta hit, and nothing was read from the feature source.
        EXPECT_EQ(sb.cache_misses, 0);
        EXPECT_EQ(sb.cache_hits, sb.batches);
        EXPECT_EQ(sb.prepare_bytes_read, 0);
      }
    }
  }
}

TEST(BatchCacheEngine, ZeroBudgetEngineNeverTouchesCache) {
  const Dataset ds = cache_dataset();
  core::QgtcEngine engine(ds, cache_config(true));  // budget 0
  (void)engine.run_quantized(2);
  const store::BatchCacheStats s = engine.cache_stats();
  EXPECT_EQ(s.hits + s.misses + s.inserts + s.entries, 0);
}

TEST(BatchCacheEngine, BudgetSmallerThanOneBatchDegradesToPassThrough) {
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = cache_config(true);
  cfg.cache_budget_bytes = 8 * 64;  // shard budget 64 bytes < any batch
  core::QgtcEngine tiny(ds, cfg);
  core::QgtcEngine off(ds, cache_config(true));
  std::vector<MatrixI32> la, lb;
  (void)tiny.run_quantized(2, &la);
  (void)off.run_quantized(2, &lb);
  EXPECT_EQ(la, lb);
  const store::BatchCacheStats s = tiny.cache_stats();
  EXPECT_EQ(s.inserts, 0);  // every batch was oversized
  EXPECT_EQ(s.hits, 0);
  EXPECT_GT(s.misses, 0);
}

TEST(BatchCacheEngine, EvictionThenRehitKeepsLogitsBitIdentical) {
  const Dataset ds = cache_dataset();
  // Many small batches, so several land in each of the cache's shards.
  const auto many_batches = [](core::EngineConfig cfg) {
    cfg.num_partitions = 32;
    cfg.batch_size = 2;  // 16 batches/epoch
    return cfg;
  };
  // Measure the epoch's prepared footprint with an uncapped cache...
  core::EngineConfig probe_cfg = many_batches(cache_config(true));
  probe_cfg.cache_budget_bytes = i64{256} << 20;
  core::QgtcEngine probe(ds, probe_cfg);
  (void)probe.run_quantized(1);
  const i64 epoch_bytes = probe.cache_stats().resident_bytes;
  ASSERT_GT(epoch_bytes, 0);

  // ...then budget each shard ~1.5 average batches: every batch fits, but a
  // shard holding two must evict, so warm epochs keep evicting and
  // re-preparing. Results must not change.
  core::EngineConfig cfg = many_batches(cache_config(true));
  cfg.cache_budget_bytes = epoch_bytes * 3 / 4;
  core::QgtcEngine engine(ds, cfg);
  core::QgtcEngine off(ds, many_batches(cache_config(true)));
  std::vector<MatrixI32> la, lb;
  const core::EngineStats sa = engine.run_quantized(3, &la);
  const core::EngineStats sb = off.run_quantized(3, &lb);
  EXPECT_EQ(la, lb);
  EXPECT_EQ(sa.bmma_ops, sb.bmma_ops);
  const store::BatchCacheStats s = engine.cache_stats();
  EXPECT_GT(s.evictions, 0);
  EXPECT_GT(s.misses, 0);  // evicted batches re-prepared
}

TEST(BatchCacheEngine, ConcurrentStreamingPrepareWorkersStayBitIdentical) {
  // Multiple prepare workers race lookup/insert on the shared cache while
  // compute workers consume the shared_ptr values — the TSan job runs this.
  const Dataset ds = cache_dataset();
  core::EngineConfig cfg = cache_config(true);
  cfg.cache_budget_bytes = i64{256} << 20;
  cfg.mode.prepare_threads = 2;
  cfg.inter_batch_threads = 2;
  cfg.mode.pipeline_depth = 2;
  core::EngineConfig off = cfg;
  off.cache_budget_bytes = 0;
  core::QgtcEngine engine_on(ds, cfg);
  core::QgtcEngine engine_off(ds, off);
  std::vector<MatrixI32> la, lb;
  const core::EngineStats sa = engine_on.run_quantized(2, &la);
  const core::EngineStats sb = engine_off.run_quantized(2, &lb);
  EXPECT_EQ(la, lb);
  EXPECT_EQ(sa.bmma_ops, sb.bmma_ops);
  EXPECT_EQ(sa.tiles_jumped, sb.tiles_jumped);
}

}  // namespace
}  // namespace qgtc
