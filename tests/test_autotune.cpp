// Runtime-configuration generation tests (artifact appendix feature):
// partition/batch knobs derived from dataset shape and device envelope.
#include <gtest/gtest.h>

#include "core/autotune.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::core {
namespace {

gnn::GnnConfig model_for(const DatasetSpec& spec) {
  gnn::GnnConfig m;
  m.in_dim = spec.feature_dim;
  m.hidden_dim = 16;
  m.out_dim = spec.num_classes;
  m.feat_bits = 4;
  m.weight_bits = 4;
  return m;
}

TEST(Autotune, PartitionCountTracksTargetSize) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile dev;
  dev.target_partition_nodes = 160;
  const TunedConfig t = generate_runtime_config(spec, model_for(spec), dev);
  const i64 avg = spec.num_nodes / t.num_partitions;
  EXPECT_GE(avg, 100);
  EXPECT_LE(avg, 240);
}

TEST(Autotune, BatchRespectsMemoryBudget) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile tiny;
  tiny.memory_bytes = 8 * 1024 * 1024;  // 8 MB device
  DeviceProfile big;
  big.memory_bytes = i64{24} * 1024 * 1024 * 1024;
  const TunedConfig small_cfg = generate_runtime_config(spec, model_for(spec), tiny);
  const TunedConfig big_cfg = generate_runtime_config(spec, model_for(spec), big);
  EXPECT_LE(small_cfg.batch_size, big_cfg.batch_size);
  EXPECT_LE(small_cfg.batch_bytes_estimate, tiny.memory_bytes);
  EXPECT_GE(small_cfg.batch_size, 1);
}

TEST(Autotune, SmallGraphClampsToParallelUnits) {
  DatasetSpec spec{"tiny", 500, 2000, 8, 2, 4, 3};
  DeviceProfile dev;
  dev.parallel_units = 16;
  dev.target_partition_nodes = 160;
  const TunedConfig t = generate_runtime_config(spec, model_for(spec), dev);
  // 500/160 ~ 4 partitions would starve 16 units; clamp raises it.
  EXPECT_GE(t.num_partitions, 16);
  EXPECT_LE(t.batch_size, t.num_partitions);
}

TEST(Autotune, Deterministic) {
  const DatasetSpec spec = table1_spec("artist");
  const TunedConfig a = generate_runtime_config(spec, model_for(spec));
  const TunedConfig b = generate_runtime_config(spec, model_for(spec));
  EXPECT_EQ(a.num_partitions, b.num_partitions);
  EXPECT_EQ(a.batch_size, b.batch_size);
}

TEST(Autotune, ApplyWritesEngineConfig) {
  const DatasetSpec spec = table1_spec("PPI");
  const TunedConfig t = generate_runtime_config(spec, model_for(spec));
  EngineConfig cfg;
  apply(t, cfg);
  EXPECT_EQ(cfg.num_partitions, t.num_partitions);
  EXPECT_EQ(cfg.batch_size, t.batch_size);
}

TEST(Autotune, InvalidProfileThrows) {
  const DatasetSpec spec = table1_spec("PPI");
  DeviceProfile bad;
  bad.parallel_units = 0;
  EXPECT_THROW(generate_runtime_config(spec, model_for(spec), bad),
               std::invalid_argument);
}

TEST(Autotune, StreamingKnobsFollowPrecomputeBudget) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile tiny;
  tiny.memory_bytes = 8 * 1024 * 1024;  // epoch cannot be precomputed here
  const TunedConfig small_cfg = generate_runtime_config(spec, model_for(spec), tiny);
  EXPECT_TRUE(small_cfg.mode.streaming());
  EXPECT_GE(small_cfg.mode.pipeline_depth, 1);
  EXPECT_LE(small_cfg.mode.pipeline_depth, 8);
  EXPECT_GE(small_cfg.mode.prepare_threads, 1);
  EXPECT_GT(small_cfg.epoch_bytes_estimate, tiny.memory_bytes / 4);

  DeviceProfile big;  // 24 GB default: small graphs precompute comfortably
  DatasetSpec small_graph{"tiny", 2000, 10000, 8, 2, 4, 3};
  const TunedConfig big_cfg =
      generate_runtime_config(small_graph, model_for(small_graph), big);
  EXPECT_FALSE(big_cfg.mode.streaming());
}

TEST(Autotune, ApplyCopiesStreamingKnobs) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile tiny;
  tiny.memory_bytes = 8 * 1024 * 1024;
  const TunedConfig t = generate_runtime_config(spec, model_for(spec), tiny);
  EngineConfig cfg;
  apply(t, cfg);
  EXPECT_EQ(cfg.mode.streaming(), t.mode.streaming());
  EXPECT_EQ(cfg.mode.pipeline_depth, t.mode.pipeline_depth);
  EXPECT_EQ(cfg.mode.prepare_threads, t.mode.prepare_threads);
}

TEST(Autotune, LatencyObjectiveShapesServingPolicy) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  const TunedConfig t =
      generate_runtime_config(spec, model_for(spec), DeviceProfile{},
                              TuneObjective::kLatency);
  EXPECT_EQ(t.objective, TuneObjective::kLatency);
  // Latency profile: no queue for a request to age in, prepare staffed at
  // least as heavily as compute (prepare dominates the per-request path).
  EXPECT_EQ(t.mode.pipeline_depth, 1);
  EXPECT_EQ(t.serving.queue_depth, 1);
  EXPECT_GE(t.serving.prepare_workers, t.serving.compute_workers);
  EXPECT_GE(t.serving.max_batch_nodes, 256);
  EXPECT_LE(t.serving.max_batch_nodes, 8192);
  EXPECT_GT(t.serving.max_wait_us, 0);

  // The throughput objective leaves the serving policy at its defaults.
  const TunedConfig thr = generate_runtime_config(spec, model_for(spec));
  EXPECT_EQ(thr.objective, TuneObjective::kThroughput);
}

TEST(Autotune, TunedEngineRuns) {
  // End-to-end: autotuned knobs drive a real engine.
  DatasetSpec spec{"tuned", 3000, 18000, 16, 4, 20, 5};
  const Dataset ds = generate_dataset(spec);
  EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 8;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 2;
  cfg.model.weight_bits = 2;
  DeviceProfile dev;
  dev.parallel_units = 4;
  apply(generate_runtime_config(spec, cfg.model, dev), cfg);
  QgtcEngine engine(ds, cfg);
  const EngineStats s = engine.run_quantized(1);
  EXPECT_EQ(s.nodes, 3000);
}

TEST(Autotune, CacheBudgetFitsInsideDeviceBudget) {
  // Streaming profiles carve the prepared-batch cache out of what the memory
  // budget leaves after the pipeline's in-flight window: cache + footprint
  // must fit inside the budget slice, and never exceed one epoch. The worker
  // counts follow the host's thread count, so check several.
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile dev;
  dev.memory_bytes = 64 * 1024 * 1024;  // streaming, with room for a cache
  const int threads_before = num_threads();
  for (const int threads : {1, 2, 4, 8}) {
    set_num_threads(threads);
    const TunedConfig t = generate_runtime_config(spec, model_for(spec), dev);
    ASSERT_TRUE(t.mode.streaming()) << threads << " threads";
    EXPECT_GT(t.streaming_footprint_estimate, 0) << threads << " threads";
    EXPECT_LE(t.streaming_footprint_estimate, dev.memory_bytes / 4)
        << threads << " threads";
    EXPECT_LE(t.cache_budget_bytes,
              dev.memory_bytes / 4 - t.streaming_footprint_estimate)
        << threads << " threads";
    EXPECT_LE(t.cache_budget_bytes, t.epoch_bytes_estimate)
        << threads << " threads";
  }
  set_num_threads(threads_before);
}

TEST(Autotune, TinyBudgetDisablesCache) {
  // When the leftover budget cannot hold even one batch, the cache would
  // thrash without ever hitting — the tuner disables it outright.
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile tiny;
  tiny.memory_bytes = 8 * 1024 * 1024;
  const TunedConfig t = generate_runtime_config(spec, model_for(spec), tiny);
  ASSERT_TRUE(t.mode.streaming());
  // The in-flight window was sized to fill the budget slice; what is left
  // cannot hold one more batch.
  EXPECT_LT(tiny.memory_bytes / 4 - t.streaming_footprint_estimate,
            t.batch_bytes_estimate);
  EXPECT_EQ(t.cache_budget_bytes, 0);
}

TEST(Autotune, PrecomputedProfilesDisableCache) {
  // The precomputed epoch is already fully resident; a cache on top would
  // only duplicate it.
  DatasetSpec small_graph{"tiny", 2000, 10000, 8, 2, 4, 3};
  const TunedConfig t =
      generate_runtime_config(small_graph, model_for(small_graph));
  ASSERT_FALSE(t.mode.streaming());
  EXPECT_EQ(t.cache_budget_bytes, 0);
}

TEST(Autotune, ApplyCopiesCacheBudget) {
  const DatasetSpec spec = table1_spec("ogbn-arxiv");
  DeviceProfile dev;
  dev.memory_bytes = 64 * 1024 * 1024;
  const TunedConfig t = generate_runtime_config(spec, model_for(spec), dev);
  EngineConfig cfg;
  apply(t, cfg);
  EXPECT_EQ(cfg.cache_budget_bytes, t.cache_budget_bytes);
}

}  // namespace
}  // namespace qgtc::core
