// Runtime configuration generation (paper artifact appendix: "the runtime
// configuration generation on the host-side CPU program makes QGTC more
// adaptive towards various kinds of input settings").
//
// Given a dataset's shape and a device resource envelope, picks the
// partition count and batch size the engine should use: partitions sized for
// dense-but-parallel subgraphs, batches sized to fill the device without
// exceeding its memory budget. The `objective` selects between the offline
// throughput profile (big batches, deep pipeline) and the online latency
// profile (small micro-batches, shallow pipeline, prepare-heavy staffing —
// the serving layer's per-request critical path is dominated by prepare).
#pragma once

#include "core/engine.hpp"
#include "core/serving.hpp"

namespace qgtc::core {

/// Device resource envelope (defaults approximate the paper's RTX3090:
/// 24 GB, 82 SMs; on the CPU substrate "SMs" are worker threads).
struct DeviceProfile {
  i64 memory_bytes = i64{24} * 1024 * 1024 * 1024;
  i64 parallel_units = 82;
  /// Target nodes per partition (paper's 1,500-partition settings put a few
  /// hundred nodes in each).
  i64 target_partition_nodes = 160;
};

/// What the tuned run optimises for.
enum class TuneObjective {
  /// Offline epochs: maximise batch size / pipeline depth within the memory
  /// budget (the paper's §6 protocol).
  kThroughput,
  /// Online serving: bound per-request latency — small micro-batches, depth
  /// 1 (no queue for a request to age in), prepare-heavy worker split.
  kLatency,
};

struct TunedConfig {
  i64 num_partitions = 0;
  i64 batch_size = 0;
  /// Estimated per-batch device bytes (packed adjacency + activations).
  i64 batch_bytes_estimate = 0;
  /// Inter-batch workers for the engine's epoch loop: enough batch streams
  /// to cover the device's parallel units, never more than there are
  /// batches per epoch.
  int inter_batch_threads = 1;
  /// Epoch discipline + streaming knobs, as one object — the tuner emits the
  /// same RunMode every other config constructor uses. Streaming turns on
  /// when materialising the whole epoch would blow the precompute budget.
  RunMode mode;
  /// The objective this config was generated for.
  TuneObjective objective = TuneObjective::kThroughput;
  /// Latency objective only: the serving layer's micro-batching policy
  /// (node/request budgets sized to the tuned batch, stage staffing from the
  /// same worker split as the pipeline knobs).
  ServingPolicy serving;
  /// Fused quantized epilogue: requantize/activate/re-pack inside the tile
  /// flush. Default-on for tuned runs — bit-identical to the unfused path
  /// and strictly less memory traffic (one int32 sweep saved per stage).
  bool fuse_epilogue = true;
  /// Hidden-layer activation the epilogue applies (mirrors the model config;
  /// kept here so a tuned run records the full scenario).
  tcsim::Activation activation = tcsim::Activation::kRelu;
  /// Estimated bytes of the fully-materialised epoch (what precomputed mode
  /// would hold resident).
  i64 epoch_bytes_estimate = 0;
  /// Estimated resident bytes of the streaming in-flight window
  /// (~(2*depth + prepare + compute + 1) batches — see pipeline.hpp).
  i64 streaming_footprint_estimate = 0;
  /// Prepared-batch cache budget (EngineConfig::cache_budget_bytes): the
  /// memory-budget slice left after the streaming footprint, capped at the
  /// epoch estimate (caching more than one epoch's batches buys nothing).
  /// Zero — cache disabled — for precomputed runs (the epoch is already
  /// resident) and for profiles whose leftover budget cannot hold even one
  /// batch (a smaller cache would thrash, never hit).
  i64 cache_budget_bytes = 0;
  /// NUMA sharding (ShardedEngine): shard count for throughput runs — one
  /// shard per NUMA node when sysfs reports several, two logical shards on
  /// a single-node host with enough cores to split, 1 (no sharding)
  /// otherwise and always for the latency objective (serving wants one
  /// engine). Never more shards than batches per epoch.
  int num_shards = 1;
  /// Pin each shard's workers to its NUMA node's CPUs — only when the host
  /// actually reported a multi-node sysfs topology (pinning inside a
  /// single node just restricts the scheduler for nothing).
  bool pin_numa = false;
};

/// Deterministically derives engine knobs from dataset shape + profile.
/// Batch sizing follows the tile-CSR adjacency's memory model.
TunedConfig generate_runtime_config(const DatasetSpec& spec,
                                    const gnn::GnnConfig& model,
                                    const DeviceProfile& dev = {},
                                    TuneObjective objective =
                                        TuneObjective::kThroughput);

/// Applies a tuned config onto an EngineConfig.
void apply(const TunedConfig& tuned, EngineConfig& cfg);

/// Online pipeline-depth controller fed by one run's stage stall telemetry
/// (the adaptive-depth hook the sharded coordinator drives between runs).
/// A compute stage starved by queue stalls while prepare keeps up wants
/// deeper queues (depth doubles, capped); a prepare stage spending most of
/// its time blocked pushing into a full queue means the depth is buying
/// nothing — halve it. Telemetry inside the dead band keeps `current_depth`.
int recommend_pipeline_depth(const EngineStats::StageBreakdownSet& telemetry,
                             int current_depth, int max_depth = 8);

}  // namespace qgtc::core
