#include "core/autotune.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace qgtc::core {

TunedConfig generate_runtime_config(const DatasetSpec& spec,
                                    const gnn::GnnConfig& model,
                                    const DeviceProfile& dev,
                                    TuneObjective objective) {
  QGTC_CHECK(spec.num_nodes > 0, "dataset spec has no nodes");
  QGTC_CHECK(dev.target_partition_nodes > 0 && dev.parallel_units > 0 &&
                 dev.memory_bytes > 0,
             "device profile fields must be positive");
  TunedConfig t;
  t.objective = objective;

  // Partition count: aim for target_partition_nodes per subgraph, clamped to
  // a sane range (at least one partition per parallel unit so batching can
  // feed the device; at most one partition per 8 nodes so TC tiles are not
  // all padding).
  const i64 by_size = ceil_div(spec.num_nodes, dev.target_partition_nodes);
  t.num_partitions = std::clamp<i64>(by_size, dev.parallel_units,
                                     std::max<i64>(spec.num_nodes / 8, dev.parallel_units));

  // Batch size: grow until the packed batch (1-bit tile-CSR adjacency +
  // s-bit activations across the widest layer) would exceed a conservative
  // slice of device memory, or until a batch spans ~2x the parallel units.
  const i64 mem_budget = dev.memory_bytes / 4;  // leave room for weights/etc.
  const i64 avg_part_nodes = ceil_div(spec.num_nodes, t.num_partitions);
  const i64 widest_dim =
      std::max({spec.feature_dim, model.hidden_dim, model.out_dim});
  // The tile-CSR of a block-diagonal batch stores ~one dense partition block
  // per subgraph instead of the full nb x nb plane.
  const auto adj_bits_estimate = [&](i64 parts_in_batch) {
    return parts_in_batch * pad8(avg_part_nodes) * pad128(avg_part_nodes);
  };
  i64 batch = 1;
  while (batch < 2 * dev.parallel_units) {
    const i64 nb = avg_part_nodes * (batch + 1);
    const i64 adj_bits = adj_bits_estimate(batch + 1);
    const i64 act_bits = pad8(nb) * pad128(widest_dim) *
                         static_cast<i64>(model.feat_bits);
    const i64 bytes = (adj_bits + act_bits) / 8;
    if (bytes > mem_budget) break;
    ++batch;
  }
  t.batch_size = std::min<i64>(batch, t.num_partitions);

  const i64 nb = avg_part_nodes * t.batch_size;
  t.batch_bytes_estimate =
      (adj_bits_estimate(t.batch_size) +
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

  // Pin budget for prepared batches (cross-epoch reuse). Derived AFTER the
  // objective override so the footprint reflects the knobs the run will use.
  t.streaming_footprint_estimate =
      (2 * static_cast<i64>(t.mode.pipeline_depth) + t.mode.prepare_threads +
       t.inter_batch_threads + 1) *
      t.batch_bytes_estimate;
  if (t.mode.streaming()) {
    const i64 leftover = mem_budget - t.streaming_footprint_estimate;
    // A budget that cannot hold one batch pins nothing — state that as 0.
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
}

}  // namespace qgtc::core
