#include "core/autotune.hpp"

#include <algorithm>

#include "parallel/affinity.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::core {

TunedConfig generate_runtime_config(const DatasetSpec& spec,
                                    const gnn::GnnConfig& model,
                                    const DeviceProfile& dev, bool sparse_adj,
                                    TuneObjective objective) {
  QGTC_CHECK(spec.num_nodes > 0, "dataset spec has no nodes");
  QGTC_CHECK(dev.target_partition_nodes > 0 && dev.parallel_units > 0 &&
                 dev.memory_bytes > 0,
             "device profile fields must be positive");
  TunedConfig t;
  t.objective = objective;
  t.mode.adjacency = sparse_adj ? RunMode::Adjacency::kTileSparse
                                : RunMode::Adjacency::kDenseJump;
  t.fuse_epilogue = true;
  t.activation = model.activation;

  // Partition count: aim for target_partition_nodes per subgraph, clamped to
  // a sane range (at least one partition per parallel unit so batching can
  // feed the device; at most one partition per 8 nodes so TC tiles are not
  // all padding).
  const i64 by_size = ceil_div(spec.num_nodes, dev.target_partition_nodes);
  t.num_partitions = std::clamp<i64>(by_size, dev.parallel_units,
                                     std::max<i64>(spec.num_nodes / 8, dev.parallel_units));

  // Batch size: grow until the packed batch (1-bit N_b^2 adjacency + s-bit
  // activations across the widest layer) would exceed a conservative slice
  // of device memory, or until a batch spans ~2x the parallel units.
  const i64 mem_budget = dev.memory_bytes / 4;  // leave room for weights/etc.
  const i64 avg_part_nodes = ceil_div(spec.num_nodes, t.num_partitions);
  const i64 widest_dim =
      std::max({spec.feature_dim, model.hidden_dim, model.out_dim});
  // The tile-sparse adjacency's block-diagonal batches store ~one dense
  // partition block per subgraph instead of the full nb x nb plane — that is
  // what lets batch sizes grow past the dense layout's memory wall. Batch
  // sizing must follow whichever layout the run will actually use.
  const auto adj_bits_estimate = [&](i64 parts_in_batch, i64 nb) {
    return t.mode.sparse_adj() ? parts_in_batch * pad8(avg_part_nodes) *
                                     pad128(avg_part_nodes)
                               : pad8(nb) * pad128(nb);
  };
  i64 batch = 1;
  while (batch < 2 * dev.parallel_units) {
    const i64 nb = avg_part_nodes * (batch + 1);
    const i64 adj_bits = adj_bits_estimate(batch + 1, nb);
    const i64 act_bits = pad8(nb) * pad128(widest_dim) *
                         static_cast<i64>(model.feat_bits);
    const i64 bytes = (adj_bits + act_bits) / 8;
    if (bytes > mem_budget) break;
    ++batch;
  }
  t.batch_size = std::min<i64>(batch, t.num_partitions);

  const i64 nb = avg_part_nodes * t.batch_size;
  t.batch_bytes_estimate =
      (adj_bits_estimate(t.batch_size, nb) +
       pad8(nb) * pad128(widest_dim) * static_cast<i64>(model.feat_bits)) /
      8;

  // Inter-batch workers: one per parallel unit until the epoch runs out of
  // batches (a worker without a batch is idle, not parallelism), capped at
  // the host's actual worker-thread count.
  const i64 batches_per_epoch =
      std::max<i64>(ceil_div(t.num_partitions, t.batch_size), 1);
  t.inter_batch_threads = static_cast<int>(std::clamp<i64>(
      std::min<i64>(dev.parallel_units, num_threads()), 1, batches_per_epoch));

  // Streaming pipeline knobs. Precomputed mode holds the whole epoch
  // resident; when that estimate exceeds the precompute budget, tuned runs
  // switch to the streaming executor and size its queues so the in-flight
  // window (~2*depth + workers batches, see pipeline.hpp) stays inside the
  // same budget.
  t.epoch_bytes_estimate = batches_per_epoch * t.batch_bytes_estimate;
  t.mode.epoch = t.epoch_bytes_estimate > mem_budget
                     ? RunMode::Epoch::kStreaming
                     : RunMode::Epoch::kPrecomputed;
  const i64 batches_in_budget =
      mem_budget / std::max<i64>(t.batch_bytes_estimate, 1);
  // Prepare workers: host threads not already staffing the compute stage,
  // capped — every prepare worker holds one fully-built batch while blocked
  // on a full queue, so oversubscribing prepare inflates the in-flight
  // window the depth bound below must cover.
  t.mode.prepare_threads = static_cast<int>(std::clamp<i64>(
      num_threads() - t.inter_batch_threads, 1,
      std::min<i64>(batches_per_epoch, 8)));
  // Even depth 1 holds 3 + P + C batches in flight; when that overflows the
  // budget, cut prepare workers, then compute workers, until it fits.
  if (t.mode.streaming()) {
    const auto overflows = [&] {
      return 3 + t.mode.prepare_threads + t.inter_batch_threads >
             batches_in_budget;
    };
    while (overflows() && t.mode.prepare_threads > 1) --t.mode.prepare_threads;
    while (overflows() && t.inter_batch_threads > 1) --t.inter_batch_threads;
  }
  // Queue depth: the peak in-flight window is ~2*depth + prepare_workers +
  // compute_workers + 1 batches (both queues full plus one batch in each
  // stage's hands — see pipeline.hpp). Solve that for the budget.
  const i64 depth = (batches_in_budget - t.mode.prepare_threads -
                     t.inter_batch_threads - 1) /
                    2;
  t.mode.pipeline_depth = static_cast<int>(
      std::clamp<i64>(depth, 1, std::min<i64>(batches_per_epoch, 8)));

  if (objective == TuneObjective::kLatency) {
    // Latency profile: the serving critical path is submit -> coalesce ->
    // prepare -> ship -> compute for ONE micro-batch, so depth beyond 1 only
    // adds a queue for a request to age in, and prepare (host-side batch
    // construction) dominates the per-request cost — staff it ahead of
    // compute. Micro-batches are sized well below the throughput batch so a
    // request never waits on a huge co-batch.
    t.mode.pipeline_depth = 1;
    const int workers = static_cast<int>(std::max<i64>(num_threads(), 2));
    t.mode.prepare_threads = std::max(workers - workers / 3, 1);
    t.inter_batch_threads = std::max(workers / 3, 1);
    t.serving.prepare_workers = t.mode.prepare_threads;
    t.serving.compute_workers = t.inter_batch_threads;
    t.serving.queue_depth = 1;
    // Node budget: a few partitions' worth per dispatch — enough coalescing
    // to amortise the forward pass, small enough that padding + co-batch
    // wait stay bounded.
    t.serving.max_batch_nodes =
        std::clamp<i64>(4 * avg_part_nodes, 256, 8192);
    t.serving.max_batch_requests = 64;
    t.serving.max_wait_us = 200;
  }

  // NUMA sharding: throughput epochs split across sockets when the host has
  // them; a single-node host with enough cores still gets two logical
  // shards (the coordinator halves each shard's worker budget, so this only
  // helps when there are cores to split). Latency runs keep one engine —
  // serving's micro-batches are too small to amortise a shard fan-out.
  if (objective == TuneObjective::kThroughput) {
    const affinity::Topology topo = affinity::detect_topology();
    i64 shards = 1;
    if (topo.num_nodes() > 1) {
      shards = topo.num_nodes();
      t.pin_numa = topo.from_sysfs;
    } else if (topo.total_cpus() >= 4) {
      shards = 2;
    }
    t.num_shards = static_cast<int>(
        std::clamp<i64>(shards, 1, batches_per_epoch));
    if (t.num_shards <= 1) t.pin_numa = false;
  }

  // Prepared-batch cache budget (cross-epoch reuse). Derived AFTER the
  // objective override so the footprint reflects the knobs the run will use.
  t.streaming_footprint_estimate =
      (2 * static_cast<i64>(t.mode.pipeline_depth) + t.mode.prepare_threads +
       t.inter_batch_threads + 1) *
      t.batch_bytes_estimate;
  if (t.mode.streaming()) {
    const i64 leftover = mem_budget - t.streaming_footprint_estimate;
    // A budget that cannot hold one batch degrades to pass-through — disable
    // it outright so the engine skips lookups too.
    t.cache_budget_bytes =
        leftover >= t.batch_bytes_estimate
            ? std::min<i64>(leftover, t.epoch_bytes_estimate)
            : 0;
  }
  return t;
}

void apply(const TunedConfig& tuned, EngineConfig& cfg) {
  cfg.num_partitions = tuned.num_partitions;
  cfg.batch_size = tuned.batch_size;
  cfg.inter_batch_threads = tuned.inter_batch_threads;
  cfg.mode = tuned.mode;
  cfg.cache_budget_bytes = tuned.cache_budget_bytes;
  cfg.model.fused_epilogue = tuned.fuse_epilogue;
  cfg.model.activation = tuned.activation;
}

int recommend_pipeline_depth(const EngineStats::StageBreakdownSet& telemetry,
                             int current_depth, int max_depth) {
  QGTC_CHECK(current_depth >= 1, "current depth must be >= 1");
  QGTC_CHECK(max_depth >= 1, "max depth must be >= 1");
  // Starved compute + healthy prepare: the queues are too shallow to absorb
  // prepare jitter — deepen. Blocked prepare + busy compute: the window is
  // wider than compute can drain — shallower queues stop buying anything but
  // resident batches. Anything in between holds (a dead band keeps the
  // controller from oscillating run-to-run on noisy small epochs).
  const double compute_stall = telemetry.compute.stall_fraction();
  const double prepare_stall = telemetry.prepare.stall_fraction();
  if (compute_stall > 0.25 && prepare_stall < 0.10) {
    return std::min(current_depth * 2, max_depth);
  }
  if (prepare_stall > 0.50 && compute_stall < 0.10 && current_depth > 1) {
    return std::max(current_depth / 2, 1);
  }
  return std::clamp(current_depth, 1, max_depth);
}

}  // namespace qgtc::core
