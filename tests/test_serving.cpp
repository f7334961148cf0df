// Serving-layer tests: the headline parity guarantee (a request served
// through the online micro-batching pipeline is bit-identical — logits AND
// substrate counters — to the same batch membership run through the offline
// epoch path, across every backend), per-request failure
// isolation, concurrent-client hammering with a clean mid-flight shutdown
// (ASan/TSan surface), ego-graph expansion semantics, and the api::Session
// counter-accounting parity with the context-pinned free functions.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/session.hpp"
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
}

// ------------------------------------------------- offline/online parity

// Submits each offline batch's partitions as explicit-node requests (fanout
// 0) with max_batch_requests = partitions-per-batch and an effectively
// infinite wait, so the batcher reproduces the offline batch membership
// deterministically — per-batch quantization then guarantees bit-identical
// logits and identical counter totals.
TEST(ServingParity, BitIdenticalToOfflineEpochAcrossBackends) {
  const Dataset ds = serving_dataset();
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
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

// ------------------------------------------------- api::Session parity

// A Session and the free functions with opt.ctx pinned to an equivalent
// private context must agree on results and on counter accounting.
TEST(SessionApi, MatchesCtxPinnedFreeFunctionsIncludingCounters) {
  Rng rng(23);
  MatrixF a(32, 48), b(48, 24);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 3, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 3, api::BitTensor::Side::kRight);

  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    const api::Session session(backend);
    const tcsim::ExecutionContext ctx(backend, /*private_counters=*/true);
    BmmOptions pinned;
    pinned.ctx = &ctx;

    // mm_int: identical result, identical private-counter accounting.
    const MatrixI32 via_session = session.mm_int(ta, tb);
    const MatrixI32 via_free_fn = api::bitMM2Int(ta, tb, pinned);
    EXPECT_EQ(via_session, via_free_fn);
    EXPECT_EQ(session.counters().bmma_ops, ctx.counters().bmma_ops);
    EXPECT_EQ(session.counters().frag_loads_a, ctx.counters().frag_loads_a);
    EXPECT_EQ(session.counters().frag_stores, ctx.counters().frag_stores);

    // mm_bit: the MmOut{bits, act} spelling against the positional one.
    const api::BitTensor s_bit = session.mm_bit(
        ta, tb, api::MmOut{4, tcsim::Activation::kRelu});
    const api::BitTensor f_bit =
        api::bitMM2Bit(ta, tb, 4, pinned, tcsim::Activation::kRelu);
    EXPECT_EQ(s_bit.to_val(), f_bit.to_val());
    EXPECT_EQ(session.counters().bmma_ops, ctx.counters().bmma_ops);
  }
}

TEST(SessionApi, FreeFunctionsRouteThroughDefaultSession) {
  // The plain free functions must keep their legacy global-counter
  // semantics while delegating through Session::default_session().
  Rng rng(29);
  MatrixF a(16, 32), b(32, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 2, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 2, api::BitTensor::Side::kRight);

  EXPECT_FALSE(api::Session::default_session().context().has_private_counters());
  tcsim::reset_counters();
  const MatrixI32 free_fn = api::bitMM2Int(ta, tb);
  const auto after = tcsim::snapshot_counters();
  EXPECT_GT(after.bmma_ops, 0u);  // accounted globally, as before

  const api::Session session(tcsim::default_backend());
  EXPECT_EQ(free_fn, session.mm_int(ta, tb));
}

}  // namespace
}  // namespace qgtc::core
