// Sharded-engine tests: the headline determinism contract — an S-shard run
// is bit-identical (logits + substrate counters) to the single-engine run
// across backends and epoch modes — plus halo-exchange
// byte-level correctness, halo accounting, skewed-plan detection, the
// telemetry-driven rebalancer, and the online pipeline-depth controller.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/autotune.hpp"
#include "core/sharded.hpp"
#include "parallel/affinity.hpp"

namespace qgtc::core {
namespace {

Dataset shard_dataset() {
  DatasetSpec spec{"shard-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

EngineConfig shard_config() {
  EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 16;
  cfg.batch_size = 2;  // 8 batches: enough to spread over 4 shards
  cfg.inter_batch_threads = 2;
  return cfg;
}

// ----------------------------------------------------------- shard planning

TEST(ShardPlanning, EveryBatchAssignedToExactlyOneShard) {
  const Dataset ds = shard_dataset();
  const EngineConfig cfg = shard_config();
  const auto batches = make_epoch_batches(ds.graph, cfg);
  const ShardPlan plan = make_shard_plan(ds.graph, batches, 3);

  EXPECT_EQ(plan.num_shards, 3);
  EXPECT_EQ(plan.num_batches(), static_cast<i64>(batches.size()));
  EXPECT_EQ(static_cast<i64>(plan.owner.size()), ds.graph.num_nodes());
  std::vector<int> seen(batches.size(), 0);
  for (int s = 0; s < plan.num_shards; ++s) {
    for (const i64 gid : plan.shard_batches[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(plan.batch_shard[static_cast<std::size_t>(gid)], s);
      ++seen[static_cast<std::size_t>(gid)];
    }
  }
  for (const int n : seen) EXPECT_EQ(n, 1);  // partition, not a cover

  // Deterministic: same inputs, same plan.
  const ShardPlan again = make_shard_plan(ds.graph, batches, 3);
  EXPECT_EQ(again.batch_shard, plan.batch_shard);
  EXPECT_EQ(again.owner, plan.owner);
}

TEST(ShardPlanning, SingleShardOwnsEverything) {
  const Dataset ds = shard_dataset();
  const auto batches = make_epoch_batches(ds.graph, shard_config());
  const ShardPlan plan = make_shard_plan(ds.graph, batches, 1);
  for (const i32 o : plan.owner) EXPECT_EQ(o, 0);
  EXPECT_EQ(static_cast<i64>(plan.shard_batches[0].size()),
            static_cast<i64>(batches.size()));
}

// ------------------------------------------------- halo exchange correctness

TEST(HaloExchangeTest, MovesExactlyTheForeignRowsByteForByte) {
  const Dataset ds = shard_dataset();
  const auto batches = make_epoch_batches(ds.graph, shard_config());
  const ShardPlan plan = make_shard_plan(ds.graph, batches, 2);
  const store::FeatureSource features(ds.features);

  comm::HaloExchange hx(2);
  const SubgraphBatch& b = batches.front();
  const int self = static_cast<int>(plan.batch_shard.front());
  MatrixF gathered;
  const auto halo = hx.exchange(features, b.nodes, plan.owner, self, &gathered);

  i64 foreign = 0;
  ASSERT_EQ(gathered.rows(), static_cast<i64>(b.nodes.size()));
  ASSERT_EQ(gathered.cols(), features.cols());
  for (std::size_t i = 0; i < b.nodes.size(); ++i) {
    const i32 u = b.nodes[i];
    if (plan.owner[static_cast<std::size_t>(u)] != self) {
      ++foreign;
      // Foreign rows survive the modelled wire byte-for-byte.
      for (i64 c = 0; c < gathered.cols(); ++c) {
        EXPECT_EQ(gathered.at(static_cast<i64>(i), c), ds.features.at(u, c));
      }
    } else {
      // Self-owned rows never cross — they stay zero in the halo surface.
      for (i64 c = 0; c < gathered.cols(); ++c) {
        EXPECT_EQ(gathered.at(static_cast<i64>(i), c), 0.0f);
      }
    }
  }
  EXPECT_EQ(halo.halo_nodes, foreign);
  EXPECT_EQ(halo.bytes,
            foreign * features.cols() * static_cast<i64>(sizeof(float)));
  EXPECT_GT(halo.halo_nodes, 0);  // a plurality split still has a boundary
  EXPECT_GT(halo.wire_seconds, 0.0);
  // The traffic matrix's diagonal stays empty and its total matches.
  EXPECT_EQ(hx.bytes_moved(self, self), 0);
  EXPECT_EQ(hx.total_bytes(), halo.bytes);
}

TEST(HaloExchangeTest, OneMessagePerRemoteSourceShard) {
  const Dataset ds = shard_dataset();
  const auto batches = make_epoch_batches(ds.graph, shard_config());
  const ShardPlan plan = make_shard_plan(ds.graph, batches, 4);
  const store::FeatureSource features(ds.features);

  comm::HaloExchange hx(4);
  const SubgraphBatch& b = batches.front();
  const int self = static_cast<int>(plan.batch_shard.front());
  const auto halo = hx.exchange(features, b.nodes, plan.owner, self);

  int sources = 0;
  for (int src = 0; src < 4; ++src) {
    if (hx.bytes_moved(src, self) > 0) ++sources;
  }
  EXPECT_EQ(halo.messages, sources);
  EXPECT_LE(halo.messages, 3);  // never more than S-1 links
  // Message latency is charged once per source, not once per row.
  EXPECT_GE(halo.wire_seconds,
            static_cast<double>(halo.messages) * hx.model().latency_us * 1e-6);
}

// --------------------------------------------------- S-shard == 1-engine

TEST(ShardedEngineParity, BitIdenticalAcrossShardCountsAndBackends) {
  const Dataset ds = shard_dataset();
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    for (const bool streaming : {false, true}) {
      EngineConfig cfg = shard_config();
      cfg.backend = backend;
      if (streaming) cfg.mode = RunMode::streaming_pipeline(2, 1);

      QgtcEngine reference(ds, cfg);
      std::vector<MatrixI32> ref_logits;
      const EngineStats ref = reference.run_quantized(1, &ref_logits);

      for (const int shards : {1, 2, 4}) {
        ShardedConfig scfg;
        scfg.num_shards = shards;
        ShardedEngine sharded(ds, cfg, scfg);
        std::vector<MatrixI32> logits;
        const EngineStats st = sharded.run_quantized(1, &logits);

        const auto ctx = [&] {
          return std::string(tcsim::backend_name(backend)) +
                 (streaming ? "/streaming" : "/precomputed") + "/S=" +
                 std::to_string(shards);
        };
        EXPECT_EQ(st.shards, shards) << ctx();
        EXPECT_EQ(st.batches, ref.batches) << ctx();
        EXPECT_EQ(st.nodes, ref.nodes) << ctx();
        EXPECT_EQ(st.bmma_ops, ref.bmma_ops) << ctx();
        EXPECT_EQ(st.tiles_jumped, ref.tiles_jumped) << ctx();
        ASSERT_EQ(logits.size(), ref_logits.size()) << ctx();
        for (std::size_t b = 0; b < logits.size(); ++b) {
          EXPECT_EQ(logits[b], ref_logits[b])
              << "logits diverged at batch " << b << " (" << ctx() << ")";
        }
        if (shards == 1) {
          EXPECT_EQ(st.halo_bytes, 0) << ctx();  // degenerate: no boundary
          EXPECT_EQ(st.halo_nodes, 0) << ctx();
        } else {
          EXPECT_GT(st.halo_bytes, 0) << ctx();
          EXPECT_GT(st.halo_wire_seconds, 0.0) << ctx();
          EXPECT_GE(st.halo_wire_seconds, st.exposed_halo_seconds) << ctx();
        }
      }
    }
  }
}

TEST(ShardedEngineParity, MultiRoundRunsStayIdentical) {
  const Dataset ds = shard_dataset();
  const EngineConfig cfg = shard_config();
  QgtcEngine reference(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  const EngineStats ref = reference.run_quantized(2, &ref_logits);

  ShardedConfig scfg;
  scfg.num_shards = 2;
  ShardedEngine sharded(ds, cfg, scfg);
  std::vector<MatrixI32> logits;
  const EngineStats st = sharded.run_quantized(2, &logits);
  EXPECT_EQ(st.bmma_ops, ref.bmma_ops);
  EXPECT_EQ(st.tiles_jumped, ref.tiles_jumped);
  ASSERT_EQ(logits.size(), ref_logits.size());
  for (std::size_t b = 0; b < logits.size(); ++b) {
    EXPECT_EQ(logits[b], ref_logits[b]);
  }
}

// ----------------------------------------- imbalance, skew and rebalancing

TEST(ShardedEngineBalance, SkewedPlanIsFlaggedAndRebalanceFixesIt) {
  const Dataset ds = shard_dataset();
  ShardedConfig scfg;
  scfg.num_shards = 2;
  ShardedEngine sharded(ds, shard_config(), scfg);

  // Deliberately skew: every batch on shard 0, shard 1 idle.
  ShardPlan skewed = sharded.plan();
  skewed.shard_batches.assign(2, {});
  for (i64 b = 0; b < skewed.num_batches(); ++b) {
    skewed.shard_batches[0].push_back(b);
    skewed.batch_shard[static_cast<std::size_t>(b)] = 0;
  }
  sharded.set_plan(skewed);

  std::vector<MatrixI32> skewed_logits;
  (void)sharded.run_quantized(1, &skewed_logits);
  const ImbalanceReport imb = sharded.imbalance();
  // One shard did all the work: max/mean == shard count.
  EXPECT_NEAR(imb.max_over_mean, 2.0, 1e-9);
  EXPECT_TRUE(imb.skewed());
  EXPECT_EQ(imb.straggler, 0);

  // The telemetry-driven rebalancer must move work onto the idle shard...
  EXPECT_TRUE(sharded.rebalance());
  const ShardPlan& after = sharded.plan();
  EXPECT_FALSE(after.shard_batches[1].empty());
  EXPECT_FALSE(after.shard_batches[0].empty());

  // ...and the rebalanced plan still produces bit-identical results.
  QgtcEngine reference(ds, shard_config());
  std::vector<MatrixI32> ref_logits;
  (void)reference.run_quantized(1, &ref_logits);
  std::vector<MatrixI32> logits;
  (void)sharded.run_quantized(1, &logits);
  ASSERT_EQ(logits.size(), ref_logits.size());
  for (std::size_t b = 0; b < logits.size(); ++b) {
    EXPECT_EQ(logits[b], ref_logits[b]);
  }
}

TEST(ShardedEngineBalance, BalancedPlanIsNotFlagged) {
  const Dataset ds = shard_dataset();
  ShardedConfig scfg;
  scfg.num_shards = 2;
  ShardedEngine sharded(ds, shard_config(), scfg);
  (void)sharded.run_quantized(1);
  const ImbalanceReport imb = sharded.imbalance();
  EXPECT_GE(imb.max_over_mean, 1.0);
  // The plurality plan spreads 8 batches over 2 shards; both sides run.
  EXPECT_GT(imb.mean_busy, 0.0);
  EXPECT_EQ(static_cast<int>(sharded.shard_reports().size()), 2);
  i64 report_batches = 0;
  for (const ShardReport& r : sharded.shard_reports()) {
    report_batches += r.batches;
  }
  EXPECT_EQ(report_batches, sharded.num_batches());
}

// ------------------------------------------------ adaptive pipeline depth

TEST(AdaptiveDepth, StarvedComputeDeepensBlockedPrepareShallows) {
  EngineStats::StageBreakdownSet t;
  // Compute mostly stalled, prepare healthy: deepen (doubling, capped).
  t.compute = {0.2, 0.8};
  t.prepare = {1.0, 0.05};
  t.ship = {0.5, 0.0};
  EXPECT_EQ(recommend_pipeline_depth(t, 2), 4);
  EXPECT_EQ(recommend_pipeline_depth(t, 8), 8);  // cap holds

  // Prepare mostly blocked on a full queue, compute saturated: shallower.
  t.prepare = {0.3, 0.7};
  t.compute = {1.0, 0.02};
  EXPECT_EQ(recommend_pipeline_depth(t, 4), 2);
  EXPECT_EQ(recommend_pipeline_depth(t, 1), 1);  // floor holds

  // Dead band: nothing clearly wrong, keep the current depth.
  t.prepare = {1.0, 0.15};
  t.compute = {1.0, 0.15};
  EXPECT_EQ(recommend_pipeline_depth(t, 3), 3);
}

TEST(AdaptiveDepth, ShardedRunRecordsSuggestionsInStreamingMode) {
  const Dataset ds = shard_dataset();
  EngineConfig cfg = shard_config();
  cfg.mode = RunMode::streaming_pipeline(2, 1);
  ShardedConfig scfg;
  scfg.num_shards = 2;
  scfg.adapt_depth = true;
  ShardedEngine sharded(ds, cfg, scfg);
  std::vector<MatrixI32> first;
  (void)sharded.run_quantized(1, &first);
  for (const ShardReport& r : sharded.shard_reports()) {
    if (r.batches == 0) continue;
    EXPECT_GE(r.suggested_depth, 1);
    EXPECT_LE(r.suggested_depth, 8);
  }
  // Whatever depth the controller picked, results stay bit-identical.
  QgtcEngine reference(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  (void)reference.run_quantized(1, &ref_logits);
  std::vector<MatrixI32> second;
  (void)sharded.run_quantized(1, &second);
  ASSERT_EQ(second.size(), ref_logits.size());
  for (std::size_t b = 0; b < second.size(); ++b) {
    EXPECT_EQ(second[b], ref_logits[b]);
  }
}

// ------------------------------------------------------- autotuned shards

TEST(AutotunedSharding, ThroughputDerivesShardsLatencyKeepsOneEngine) {
  DatasetSpec spec{"tune-shard", 20000, 120000, 16, 4, 16, 9};
  gnn::GnnConfig model;
  model.in_dim = 16;
  model.hidden_dim = 16;
  model.out_dim = 4;
  const TunedConfig thr = generate_runtime_config(spec, model);
  EXPECT_GE(thr.num_shards, 1);
  // pin_numa only ever comes with a real multi-node sysfs topology.
  if (thr.pin_numa) {
    EXPECT_GT(affinity::detect_topology().num_nodes(), 1);
  }
  const TunedConfig lat = generate_runtime_config(
      spec, model, DeviceProfile{}, TuneObjective::kLatency);
  EXPECT_EQ(lat.num_shards, 1);
  EXPECT_FALSE(lat.pin_numa);
}

}  // namespace
}  // namespace qgtc::core
