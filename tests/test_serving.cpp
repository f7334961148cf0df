// Serving-layer tests: the headline parity guarantee (a request served
// through the online micro-batching pipeline is bit-identical — logits AND
// substrate counters — to the same batch membership run through the offline
// epoch path, across every backend), per-request failure
// isolation, concurrent-client hammering with a clean mid-flight shutdown
// (ASan/TSan surface), ego-graph expansion semantics, and the API free
// functions' counting into the default context.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/bit_tensor_api.hpp"
#include "common/rng.hpp"
#include "core/serving.hpp"

namespace qgtc::core {
namespace {

Dataset serving_dataset() {
  DatasetSpec spec;
  spec.name = "serving-test";
  spec.num_nodes = 1200;
  spec.num_edges = 7200;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  spec.num_clusters = 8;
  spec.seed = 11;
  return generate_dataset(spec);
}

EngineConfig serving_config() {
  EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 8;
  cfg.batch_size = 4;  // 2 offline batches of 4 partitions each
  return cfg;
}

// ------------------------------------------------- ego-graph expansion

TEST(ExpandEgo, FanoutZeroReturnsSeedsInOrder) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{5, 3, 900};
  EXPECT_EQ(expand_ego(ds.graph, seeds, 0), seeds);
}

TEST(ExpandEgo, FanoutGrowsMonotonicallyAndKeepsSeedsFirst) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{10, 20};
  const auto hop1 = expand_ego(ds.graph, seeds, 1);
  const auto hop2 = expand_ego(ds.graph, seeds, 2);
  ASSERT_GE(hop1.size(), seeds.size());
  ASSERT_GE(hop2.size(), hop1.size());
  // Seeds first, then BFS discovery order; hop2 extends hop1 as a prefix.
  for (std::size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(hop1[i], seeds[i]);
  for (std::size_t i = 0; i < hop1.size(); ++i) EXPECT_EQ(hop2[i], hop1[i]);
  // No duplicates.
  std::vector<u8> seen(static_cast<std::size_t>(ds.graph.num_nodes()), 0);
  for (const i32 v : hop2) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

TEST(ExpandEgo, MaxNodesTruncatesButKeepsSeeds) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{1, 2, 3};
  const auto nodes = expand_ego(ds.graph, seeds, 3, /*max_nodes=*/8);
  EXPECT_LE(nodes.size(), 8u);
  ASSERT_GE(nodes.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(nodes[i], seeds[i]);
}

TEST(ExpandEgo, RejectsBadSeeds) {
  const Dataset ds = serving_dataset();
  EXPECT_THROW(expand_ego(ds.graph, {}, 0), std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {-1}, 0), std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {static_cast<i32>(ds.graph.num_nodes())}, 0),
               std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {4, 4}, 0), std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {4}, 1, -1), std::invalid_argument);
}

// ------------------------------------------------- offline/online parity

// Submits each offline batch's partitions as explicit-node requests (fanout
// 0) with max_batch_requests = partitions-per-batch and an effectively
// infinite wait, so the batcher reproduces the offline batch membership
// deterministically — per-batch quantization then guarantees bit-identical
// logits and identical counter totals.
TEST(ServingParity, BitIdenticalToOfflineEpochAcrossBackends) {
  const Dataset ds = serving_dataset();
  for (const auto backend : tcsim::all_backends()) {
    EngineConfig cfg = serving_config();
    cfg.backend = backend;

    QgtcEngine offline(ds, cfg);
    std::vector<MatrixI32> ref_logits;
    const EngineStats ref = offline.run_quantized(1, &ref_logits);

    ServingPolicy policy;
    policy.max_batch_requests = cfg.batch_size;
    policy.max_batch_nodes = i64{1} << 40;  // only the request count rules
    policy.max_wait_us = i64{60} * 1000 * 1000;
    policy.prepare_workers = 2;
    policy.compute_workers = 2;
    ServingEngine serving(ds, cfg, policy);

    std::vector<std::future<ServingResult>> futures;
    std::vector<std::pair<i64, i64>> origin;  // (offline batch, partition)
    for (i64 b = 0; b < offline.num_batches(); ++b) {
      const SubgraphBatch& batch = offline.batch_data()[
          static_cast<std::size_t>(b)]->batch;
      for (i64 p = 0; p < batch.num_parts(); ++p) {
        ServingRequest req;
        req.fanout = 0;
        req.seeds.assign(
            batch.nodes.begin() + batch.part_bounds[p],
            batch.nodes.begin() + batch.part_bounds[p + 1]);
        futures.push_back(serving.submit(std::move(req)));
        origin.emplace_back(b, p);
      }
    }
    serving.stop();  // flushes any partial trailing micro-batch

    i64 served_nodes = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const ServingResult res = futures[i].get();
      const auto [b, p] = origin[i];
      const SubgraphBatch& batch = offline.batch_data()[
          static_cast<std::size_t>(b)]->batch;
      // The micro-batch reproduced the offline membership exactly.
      EXPECT_EQ(res.batch_nodes, batch.size());
      EXPECT_EQ(res.batch_requests, batch.num_parts());
      const i64 r0 = batch.part_bounds[p];
      const i64 r1 = batch.part_bounds[p + 1];
      ASSERT_EQ(static_cast<i64>(res.nodes.size()), r1 - r0);
      served_nodes += r1 - r0;
      const MatrixI32& ref_b = ref_logits[static_cast<std::size_t>(b)];
      ASSERT_EQ(res.logits.cols(), ref_b.cols());
      for (i64 r = r0; r < r1; ++r) {
        for (i64 c = 0; c < ref_b.cols(); ++c) {
          ASSERT_EQ(res.logits(r - r0, c), ref_b(r, c))
              << "logits diverged (backend=" << tcsim::backend_name(backend)
              << " batch=" << b << " part=" << p
              << " row=" << r << " col=" << c << ")";
        }
      }
    }
    EXPECT_EQ(served_nodes, ref.nodes);

    // Counter parity: the compute sessions' totals over exactly one epoch
    // of membership equal the offline per-epoch totals.
    const ServingStats st = serving.stats();
    EXPECT_EQ(st.bmma_ops, ref.bmma_ops)
        << "backend=" << tcsim::backend_name(backend);
    EXPECT_EQ(st.tiles_jumped, ref.tiles_jumped);
    EXPECT_EQ(st.requests_completed, static_cast<i64>(futures.size()));
    EXPECT_EQ(st.requests_failed, 0);
    EXPECT_EQ(st.batches_dispatched, offline.num_batches());
    EXPECT_GT(st.packed_bytes, 0);
    // Ego-graph micro-batches and set-up-only preparing keep the CSR walker.
    EXPECT_EQ(serving.engine().partition_lists_bytes(), 0);
    EXPECT_EQ(offline.partition_lists_bytes(), 0);
  }
}

// ------------------------------------------------- failure isolation

TEST(ServingFailure, BadRequestFailsItselfNotTheServer) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_wait_us = 500;
  ServingEngine serving(ds, serving_config(), policy);

  // Out-of-range and duplicate seeds fail at admission.
  auto bad1 = serving.submit({{-3}, 0, 0});
  EXPECT_THROW(bad1.get(), std::invalid_argument);
  auto bad2 = serving.submit({{7, 7}, 0, 0});
  EXPECT_THROW(bad2.get(), std::invalid_argument);

  // The server keeps serving afterwards — including a request whose
  // ego-graph exceeds max_batch_nodes (it dispatches alone).
  const ServingResult ok = serving.infer({{1, 2, 3}, 1, 0});
  EXPECT_EQ(ok.logits.cols(), 4);
  EXPECT_GE(ok.nodes.size(), 3u);

  ServingPolicy tiny = policy;
  tiny.max_batch_nodes = 2;
  ServingEngine small(ds, serving_config(), tiny);
  const ServingResult big = small.infer({{1, 2, 3, 4, 5}, 0, 0});
  EXPECT_EQ(big.nodes.size(), 5u);
  EXPECT_EQ(big.batch_requests, 1);

  const ServingStats st = serving.stats();
  EXPECT_EQ(st.requests_completed, 1);
  EXPECT_EQ(st.requests_admitted, 1);  // the two bad ones never got in
}

TEST(ServingFailure, NegativeLoadFanoutThrowsBeforeAnySubmit) {
  const Dataset ds = serving_dataset();
  ServingEngine serving(ds, serving_config(), ServingPolicy{});
  LoadSpec spec;
  spec.num_requests = 4;
  spec.fanout = -1;
  EXPECT_THROW(run_poisson_load(serving, spec), std::invalid_argument);
  spec.fanout = 1;
  spec.max_nodes = -1;
  EXPECT_THROW(run_poisson_load(serving, spec), std::invalid_argument);
  serving.stop();
  const ServingStats st = serving.stats();
  EXPECT_EQ(st.requests_admitted, 0);
  EXPECT_EQ(st.requests_failed, 0);
}

TEST(ServingStats, StageTimesAreLiveBeforeStop) {
  // A reader mid-run (a load client between phases) sees the stage time of
  // every completed request without stopping the server: the executor
  // publishes compute time before it resolves the request's future.
  const Dataset ds = serving_dataset();
  ServingEngine serving(ds, serving_config(), ServingPolicy{});
  const ServingResult res = serving.infer({{1, 2, 3}, 1, 0});
  EXPECT_EQ(res.logits.rows(), static_cast<i64>(res.nodes.size()));
  const ServingStats st = serving.stats();
  EXPECT_EQ(st.requests_completed, 1);
  EXPECT_EQ(st.batches_dispatched, 1);
  EXPECT_GT(st.prepare_stage.busy_seconds, 0.0);
  EXPECT_GT(st.compute_stage.busy_seconds, 0.0);
  EXPECT_GT(st.packed_bytes, 0);
  serving.stop();
}

TEST(ServingFailure, NonzeroPinBudgetIsRejected) {
  // Micro-batches are not epoch batches, so a server has nothing to pin: a
  // budget must fail loudly, not be silently ignored.
  const Dataset ds = serving_dataset();
  EngineConfig cfg = serving_config();
  cfg.cache_budget_bytes = i64{1} << 20;
  try {
    ServingEngine serving(ds, cfg, ServingPolicy{});
    FAIL() << "a nonzero cache_budget_bytes was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cache_budget_bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServingFailure, SubmitAfterStopThrows) {
  const Dataset ds = serving_dataset();
  ServingEngine serving(ds, serving_config(), ServingPolicy{});
  serving.stop();
  EXPECT_THROW(serving.submit({{1}, 0, 0}), std::runtime_error);
}

// ------------------------------------------------- concurrent hammering

TEST(ServingConcurrency, HammeringClientsAndMidFlightStopStayClean) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_batch_nodes = 512;
  policy.max_batch_requests = 8;
  policy.max_wait_us = 100;
  policy.prepare_workers = 2;
  policy.compute_workers = 2;
  ServingEngine serving(ds, serving_config(), policy);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<u64>(c) + 17);
      for (int i = 0; i < kPerClient; ++i) {
        ServingRequest req;
        req.fanout = 1;
        req.max_nodes = 64;
        req.seeds = {static_cast<i32>(
            rng.next_below(static_cast<u64>(ds.graph.num_nodes())))};
        try {
          const ServingResult res = serving.infer(std::move(req));
          ASSERT_GE(res.nodes.size(), 1u);
          ASSERT_EQ(res.logits.rows(), static_cast<i64>(res.nodes.size()));
          completed.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);  // raced with stop() below — acceptable
        }
      }
    });
  }
  // Stop mid-flight: every in-flight future must still resolve (value or
  // exception) and every thread must join — no hang, no leak, no race.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  serving.stop();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load() + failed.load(), kClients * kPerClient);
  EXPECT_GT(completed.load(), 0);
}

// ------------------------------------------------- API default context

TEST(Api, FreeFunctionsCountIntoDefaultContext) {
  // With no opt.ctx the free functions run on the default context and count
  // into its block.
  Rng rng(29);
  MatrixF a(16, 32), b(32, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 2, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 2, api::BitTensor::Side::kRight);

  const auto& global = tcsim::ExecutionContext::default_context();
  const tcsim::ExecutionContext ctx(global.backend_kind());
  BmmOptions pinned;
  pinned.ctx = &ctx;
  const MatrixI32 via_ctx = api::bitMM2Int(ta, tb, pinned);
  const u64 ops = ctx.counters().bmma_ops;
  ASSERT_GT(ops, 0u);

  const u64 before = global.counters().bmma_ops;
  EXPECT_EQ(api::bitMM2Int(ta, tb), via_ctx);
  EXPECT_EQ(global.counters().bmma_ops - before, ops);
  (void)api::bitMM2Bit(ta, tb, 4);
  EXPECT_EQ(global.counters().bmma_ops - before, 2 * ops);
}

}  // namespace
}  // namespace qgtc::core
