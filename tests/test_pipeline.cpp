// Streaming-pipeline tests: bounded-queue semantics, overlap accounting,
// stream-epoch invariants, shutdown-on-exception safety (ASan-clean), and
// the headline guarantee — streaming and precomputed engines produce
// bit-identical logits and identical counters for every pipeline depth and
// backend.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/pipeline.hpp"

namespace qgtc::core {
namespace {

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueue, FifoAndCloseDrainsRemainingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed: no new items
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained
}

TEST(BoundedQueue, AbortDropsPendingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  q.abort();
  EXPECT_FALSE(q.pop().has_value());  // pending item was dropped
  EXPECT_FALSE(q.push(8));
}

TEST(BoundedQueue, ResetReopensAfterAbort) {
  // Regression: a long-lived server must survive an aborted epoch. Before
  // reset() existed, one abort left the queue returning end-of-stream
  // forever — a single poisoned batch killed the whole server.
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  q.abort();
  EXPECT_FALSE(q.push(2));
  EXPECT_FALSE(q.pop().has_value());

  q.reset();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.push(3));  // pushes work again
  EXPECT_TRUE(q.push(4));
  EXPECT_EQ(q.pop().value(), 3);  // and only post-reset items are visible
  EXPECT_EQ(q.pop().value(), 4);

  // reset() after a graceful close also drops undrained leftovers.
  EXPECT_TRUE(q.push(5));
  q.close();
  q.reset();
  int out = 0;
  EXPECT_EQ(q.pop_for(1000, out), BoundedQueue<int>::PopStatus::kTimeout);
}

TEST(BoundedQueue, ResetReleasesBlockedProducers) {
  // A producer parked in push() on a full+open queue must wake when reset()
  // clears the backlog, not stay wedged against the old capacity.
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));  // full
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    const bool ok = q.push(2);  // blocks until reset clears the queue
    pushed.store(ok);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  q.reset();
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);  // item 1 was dropped by reset
}

TEST(BoundedQueue, PopForTimesOutOnOpenEmptyQueue) {
  BoundedQueue<int> q(2);
  int out = 0;
  EXPECT_EQ(q.pop_for(1000, out), BoundedQueue<int>::PopStatus::kTimeout);
  EXPECT_TRUE(q.push(9));
  EXPECT_EQ(q.pop_for(1000, out), BoundedQueue<int>::PopStatus::kItem);
  EXPECT_EQ(out, 9);
  q.close();
  EXPECT_EQ(q.pop_for(1000, out), BoundedQueue<int>::PopStatus::kClosed);
}

TEST(BoundedQueue, FullQueueBlocksProducerUntilConsumerPops) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(1));
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());  // capacity 1: producer is parked
  EXPECT_EQ(q.pop().value(), 0);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();  // deadlock here would trip the ctest timeout
}

// ------------------------------------------------- overlap accounting math

TEST(OverlapAccounting, ComputeBoundExposesOnlyFirstTransfer) {
  const double wire[] = {1.0, 1.0, 1.0};
  const double comp[] = {10.0, 10.0, 10.0};
  // Batch 0's wire time has nothing to hide behind; 1 and 2 finish long
  // before the compute engine frees up.
  EXPECT_DOUBLE_EQ(exposed_transfer_seconds(wire, comp), 1.0);
}

TEST(OverlapAccounting, TransferBoundExposesAlmostEverything) {
  const double wire[] = {10.0, 10.0};
  const double comp[] = {1.0, 1.0};
  // Transfer 1 (ends t=20) hides only batch 0's 1s of compute (t=10..11).
  EXPECT_DOUBLE_EQ(exposed_transfer_seconds(wire, comp), 19.0);
}

TEST(OverlapAccounting, EmptyEpochAndShapeMismatch) {
  EXPECT_DOUBLE_EQ(exposed_transfer_seconds({}, {}), 0.0);
  const double one[] = {1.0};
  EXPECT_THROW(exposed_transfer_seconds(one, {}), std::invalid_argument);
}

// --------------------------------------------------------- stream epoch

StreamEpochConfig small_epoch(i64 batches, int depth) {
  StreamEpochConfig cfg;
  cfg.num_batches = batches;
  cfg.depth = depth;
  cfg.prepare_workers = 2;
  cfg.compute_workers = 2;
  return cfg;
}

transfer::PackedSubgraph fake_pack(const i64& v, transfer::StagingBuffer& slot) {
  transfer::PackedSubgraph p;
  slot.stage(&v, sizeof(v));
  p.total_bytes = sizeof(v);
  p.adjacency_bytes = 4;
  p.modeled_seconds = 1e-6;
  return p;
}

TEST(StreamEpoch, EveryBatchComputedExactlyOnceWithItsOwnData) {
  const i64 n = 48;
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  transfer::StagingRing ring(2);
  const StreamEpochStats stats = run_stream_epoch<i64>(
      small_epoch(n, 2), ring,
      [](i64 i) { return i; },
      [](const i64&) { return i64{1000}; },
      fake_pack,
      [&](const i64& item, i64 index, int worker) {
        EXPECT_EQ(item, index);  // ship/compute never mixed up payloads
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, 2);
        seen[static_cast<std::size_t>(index)].fetch_add(1);
      });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(stats.packed_bytes, n * static_cast<i64>(sizeof(i64)));
  EXPECT_EQ(stats.adj_bytes, n * 4);
  EXPECT_NEAR(stats.wire_seconds, n * 1e-6, 1e-9);
  EXPECT_GT(stats.exposed_seconds, 0.0);  // at least batch 0 is exposed
}

TEST(StreamEpoch, PeakResidencyIsBoundedByDepthNotEpoch) {
  const i64 n = 64;
  const i64 item_bytes = 1000;
  const StreamEpochConfig cfg = small_epoch(n, 2);
  transfer::StagingRing ring(2);
  const StreamEpochStats stats = run_stream_epoch<i64>(
      cfg, ring,
      [](i64 i) { return i; },
      [&](const i64&) { return item_bytes; },
      fake_pack,
      [](const i64&, i64, int) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
  // In-flight window: both queues full + one item in each stage's hands.
  const i64 window =
      2 * cfg.depth + cfg.prepare_workers + cfg.compute_workers + 1;
  EXPECT_GE(stats.peak_prepared_bytes, item_bytes);
  EXPECT_LE(stats.peak_prepared_bytes, window * item_bytes);
  EXPECT_LT(stats.peak_prepared_bytes, n * item_bytes);  // never the epoch
}

TEST(StreamEpoch, ComputeExceptionShutsDownAllStages) {
  const i64 n = 64;
  transfer::StagingRing ring(2);
  const auto run = [&] {
    (void)run_stream_epoch<i64>(
        small_epoch(n, 1), ring,
        [](i64 i) { return i; },
        [](const i64&) { return i64{8}; },
        fake_pack,
        [](const i64&, i64 index, int) {
          if (index == 3) throw std::runtime_error("injected compute failure");
        });
  };
  // Depth 1 guarantees producers are parked on a full queue when the
  // exception fires; abort() must wake them or this deadlocks (and the
  // ctest timeout flags it).
  EXPECT_THROW(run(), std::runtime_error);
}

TEST(StreamEpoch, PrepareExceptionPropagates) {
  transfer::StagingRing ring(2);
  const auto run = [&] {
    (void)run_stream_epoch<i64>(
        small_epoch(16, 2), ring,
        [](i64 i) -> i64 {
          if (i == 5) throw std::runtime_error("injected prepare failure");
          return i;
        },
        [](const i64&) { return i64{8}; },
        fake_pack, [](const i64&, i64, int) {});
  };
  EXPECT_THROW(run(), std::runtime_error);
}

// -------------------------------------- streaming-vs-precomputed identity

Dataset pipeline_dataset() {
  DatasetSpec spec{"pipeline-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

EngineConfig pipeline_config(gnn::ModelKind kind, int bits) {
  EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 32;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  return cfg;
}

TEST(StreamingEngine, BitIdenticalAcrossDepthsAndBackends) {
  const Dataset ds = pipeline_dataset();
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    EngineConfig cfg = pipeline_config(gnn::ModelKind::kClusterGCN, 3);
    cfg.backend = backend;
    cfg.inter_batch_threads = 2;

    QgtcEngine reference(ds, cfg);
    std::vector<MatrixI32> ref_logits;
    const EngineStats ref = reference.run_quantized(1, &ref_logits);
    ASSERT_EQ(static_cast<i64>(ref_logits.size()), reference.num_batches());

    for (const int depth : {1, 2, 8}) {
      EngineConfig scfg = cfg;
      scfg.mode = RunMode::streaming_pipeline(depth, 2);
      QgtcEngine streaming(ds, scfg);
      std::vector<MatrixI32> logits;
      const EngineStats s = streaming.run_quantized(1, &logits);

      EXPECT_EQ(s.nodes, ref.nodes) << "backend=" << tcsim::backend_name(backend)
                                    << " depth=" << depth;
      EXPECT_EQ(s.bmma_ops, ref.bmma_ops);
      EXPECT_EQ(s.tiles_jumped, ref.tiles_jumped);
      ASSERT_EQ(logits.size(), ref_logits.size());
      for (std::size_t b = 0; b < logits.size(); ++b) {
        EXPECT_EQ(logits[b], ref_logits[b])
            << "logits diverged at batch " << b << " (backend="
            << tcsim::backend_name(backend) << " depth=" << depth << ")";
      }
    }
  }
}

TEST(StreamingEngine, GinModelBitIdentical) {
  const Dataset ds = pipeline_dataset();
  EngineConfig cfg = pipeline_config(gnn::ModelKind::kBatchedGIN, 4);
  QgtcEngine reference(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  const EngineStats ref = reference.run_quantized(1, &ref_logits);

  EngineConfig scfg = cfg;
  scfg.mode = RunMode::streaming_pipeline(2, 1);
  QgtcEngine streaming(ds, scfg);
  std::vector<MatrixI32> logits;
  const EngineStats s = streaming.run_quantized(1, &logits);
  EXPECT_EQ(s.bmma_ops, ref.bmma_ops);
  EXPECT_EQ(s.tiles_jumped, ref.tiles_jumped);
  ASSERT_EQ(logits.size(), ref_logits.size());
  for (std::size_t b = 0; b < logits.size(); ++b) {
    EXPECT_EQ(logits[b], ref_logits[b]);
  }
}

TEST(StreamingEngine, ChargesTransferInlineAndBoundsResidency) {
  const Dataset ds = pipeline_dataset();
  EngineConfig cfg = pipeline_config(gnn::ModelKind::kClusterGCN, 4);
  // One partition per batch: 16 batches, comfortably more than the depth-1
  // in-flight window (~2*depth + stage hands), so the residency comparison
  // below is meaningful.
  cfg.batch_size = 1;
  QgtcEngine precomputed(ds, cfg);
  const EngineStats pre = precomputed.run_quantized(1);
  EXPECT_EQ(pre.packed_bytes, 0);  // precomputed: transfer is post-hoc only
  EXPECT_DOUBLE_EQ(pre.exposed_transfer_seconds, 0.0);
  EXPECT_GT(pre.peak_prepared_bytes, 0);  // whole epoch resident

  EngineConfig scfg = cfg;
  scfg.mode = RunMode::streaming_pipeline(1, 1);
  QgtcEngine streaming(ds, scfg);
  const EngineStats s = streaming.run_quantized(1);
  EXPECT_TRUE(s.streaming);
  EXPECT_EQ(s.pipeline_depth, 1);
  EXPECT_GT(s.packed_bytes, 0);  // transfer charged inline, on the timed path
  EXPECT_GT(s.packed_transfer_seconds, 0.0);
  EXPECT_GT(s.exposed_transfer_seconds, 0.0);
  EXPECT_LE(s.exposed_transfer_seconds, s.packed_transfer_seconds + 1e-12);
  // Bounded residency: the in-flight window, not the epoch.
  EXPECT_GT(s.peak_prepared_bytes, 0);
  EXPECT_LT(s.peak_prepared_bytes, pre.peak_prepared_bytes);
  // Inline accounting matches the post-hoc §4.6 accounting byte-for-byte.
  const EngineStats post = streaming.transfer_accounting();
  EXPECT_EQ(s.packed_bytes, post.packed_bytes);
  EXPECT_EQ(s.adj_bytes, post.adj_bytes);
  // And streaming never materialises the epoch.
  EXPECT_THROW(static_cast<void>(streaming.batch_data()),
               std::invalid_argument);
}

// --------------------------- transfer accounting packs the prepared planes

TEST(TransferParity, PackedTotalsMatchFreshlyQuantizedPlanes) {
  // The §4.6 accounting must ship bd.x_planes as-is: identical totals to
  // quantizing + decomposing the features from scratch in the layout the
  // first layer consumes — proving nothing is re-derived (or derived
  // differently) on the transfer path.
  const Dataset ds = pipeline_dataset();
  for (const auto kind :
       {gnn::ModelKind::kClusterGCN, gnn::ModelKind::kBatchedGIN}) {
    const EngineConfig cfg = pipeline_config(kind, 4);
    QgtcEngine engine(ds, cfg);
    transfer::PcieModel pcie;
    transfer::StagingBuffer s1, s2;
    const auto pack = [&](const QgtcEngine::BatchData& bd,
                          const StackedBitTensor& planes,
                          transfer::StagingBuffer& slot) {
      return transfer::pack_batch_tiles(bd.adj_tiles, planes, slot, pcie);
    };
    for (const auto& bdp : engine.batch_data()) {
      const auto& bd = *bdp;
      const auto engine_packed = pack(bd, bd.x_planes, s1);

      const QuantParams qp =
          quant_params_from_data(bd.features, cfg.model.feat_bits);
      const MatrixI32 q = quantize_matrix(bd.features, qp);
      const BitLayout layout = kind == gnn::ModelKind::kClusterGCN
                                   ? BitLayout::kColMajorK
                                   : BitLayout::kRowMajorK;
      const auto fresh = StackedBitTensor::decompose(
          q, cfg.model.feat_bits, layout, PadPolicy::kTile8);
      const auto fresh_packed = pack(bd, fresh, s2);

      EXPECT_EQ(engine_packed.total_bytes, fresh_packed.total_bytes);
      EXPECT_EQ(engine_packed.adjacency_bytes, fresh_packed.adjacency_bytes);
      EXPECT_EQ(engine_packed.embedding_bytes, fresh_packed.embedding_bytes);
      ASSERT_EQ(s1.bytes(), s2.bytes());
      EXPECT_EQ(std::memcmp(s1.data(), s2.data(),
                            static_cast<std::size_t>(s1.bytes())),
                0);
    }
  }
}

TEST(TransferParity, StreamingAndPrecomputedAccountingIdentical) {
  const Dataset ds = pipeline_dataset();
  EngineConfig cfg = pipeline_config(gnn::ModelKind::kClusterGCN, 4);
  QgtcEngine precomputed(ds, cfg);
  EngineConfig scfg = cfg;
  scfg.mode = RunMode::streaming_pipeline(2, 1);
  QgtcEngine streaming(ds, scfg);
  const EngineStats a = precomputed.transfer_accounting();
  const EngineStats b = streaming.transfer_accounting();
  EXPECT_EQ(a.packed_bytes, b.packed_bytes);
  EXPECT_EQ(a.adj_bytes, b.adj_bytes);
  EXPECT_EQ(a.dense_bytes, b.dense_bytes);
  EXPECT_DOUBLE_EQ(a.packed_transfer_seconds, b.packed_transfer_seconds);
}

}  // namespace
}  // namespace qgtc::core
