// QgtcEngine — the public end-to-end pipeline a downstream user adopts:
// dataset -> METIS-substitute partitioning -> subgraph batching -> packed
// transfer -> per-batch quantized GNN inference on the tensor-core
// substrate, with the fp32 DGL-substitute path available for comparison.
//
// Every epoch runs on the one staged executor (`core/pipeline.hpp`):
// prepare -> ship -> compute over bounded queues. The epoch mode decides
// only what prepare and ship do; both modes share one bit-identical
// per-batch prepare path (`prepare_batch_data` + `QgtcModel::prepare_input`).
//
// * **Precomputed** (`RunMode::precomputed`): every batch's adjacency tiles,
//   local CSR, fp32 features and quantized planes are materialised at
//   construction (untimed preprocessing, O(epoch) resident). Prepare takes
//   the batch's resident slot and ship returns `transfer::resident_reuse()`,
//   so the reported time covers the forward pass only; host->device
//   transfer is accounted post-hoc via `transfer_accounting()` — the
//   paper's §6 timing protocol.
// * **Streaming** (`RunMode::streaming_pipeline`): prepare builds each batch
//   lazily and ship packs it, so peak memory is O(pipeline_depth) batches
//   and the PCIe model is charged inline on the timed path, with overlap
//   accounting (`exposed_transfer_seconds`). Epoch batches assemble their
//   tile-CSR from partition-local lists built once, on the first
//   `prepare_batch` call, so epochs never read the CSR. With a
//   `cache_budget_bytes`, a prepared batch that still fits under the budget
//   is pinned in its resident slot, and warm epochs take it from there.
//
// Logits, `bmma_ops`, `tiles_jumped` and `nodes` are bit-identical across
// the two modes on every backend. Every batch adjacency is a tile-CSR of its
// nonzero 8x128 tiles, so zero-tile jumping (§4.3) is structural.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "store/dataset_store.hpp"
#include "transfer/packing.hpp"

namespace qgtc::core {

/// Run-mode knobs collapsed into one documented object — every constructor
/// of an engine config (CLI, autotuner, tests, serving layer) picks an epoch
/// execution discipline the same way.
struct RunMode {
  /// Epoch execution discipline.
  enum class Epoch {
    /// Materialise every batch up front (untimed preprocessing, O(epoch)
    /// resident) — the paper's §6 timing protocol.
    kPrecomputed,
    /// Batches are prepared lazily and flow through the bounded
    /// prepare/ship/compute pipeline: O(pipeline_depth) resident, PCIe model
    /// charged inline. Datasets larger than the precompute budget become a
    /// config knob, not a crash.
    kStreaming,
  };
  /// Batch-adjacency layout. The tile-CSR (only nonzero 8x128 tiles) is
  /// the one layout; the enum survives only as the trailing parameter of
  /// the named constructors below, which existing callers still spell out.
  enum class Adjacency { kTileSparse };

  Epoch epoch = Epoch::kPrecomputed;
  /// Streaming only: capacity of each inter-stage queue — the peak-memory
  /// bound is ~(2*depth + workers) live batches.
  int pipeline_depth = 2;
  /// Streaming only: prepare-stage workers (host-side batch construction).
  int prepare_threads = 1;

  [[nodiscard]] bool streaming() const { return epoch == Epoch::kStreaming; }

  static RunMode precomputed(Adjacency = Adjacency::kTileSparse) {
    return RunMode{Epoch::kPrecomputed, 2, 1};
  }
  static RunMode streaming_pipeline(int depth, int prepare,
                                    Adjacency = Adjacency::kTileSparse) {
    return RunMode{Epoch::kStreaming, depth, prepare};
  }
};

struct EngineConfig {
  gnn::GnnConfig model;
  i64 num_partitions = 1500;  // paper's METIS setting
  i64 batch_size = 16;        // partitions per batch
  u64 seed = 3;
  /// Substrate backend every kernel of the forward pass executes on.
  tcsim::BackendKind backend = tcsim::default_backend();
  /// Compute-stage workers of run_quantized / run_fp32: partition-batches
  /// executed concurrently (each worker owns a private ExecutionContext;
  /// counters and stats merge deterministically). With >= 2, each worker
  /// runs its kernels serially.
  int inter_batch_threads = 1;
  /// Epoch execution discipline (see RunMode).
  RunMode mode;
  /// Streaming only: bytes of prepared epoch batches the engine may keep
  /// pinned in its resident set. A batch is pinned when it is prepared and
  /// still fits; pinned batches are never evicted, so every warm epoch skips
  /// prepare + pack for exactly those batches and ships them as zero bytes
  /// (device-resident reuse). 0 pins nothing. Results stay bit-identical
  /// either way because a pinned batch IS the prepared data.
  i64 cache_budget_bytes = 0;
};

struct EngineStats {
  // Epoch wall time on the executor (all batches), seconds. In precomputed
  // mode prepare is a lookup and nothing ships, so this is the forward
  // pass; in streaming mode it is prepare, packed transfer and compute,
  // overlapped.
  double forward_seconds = 0.0;
  i64 batches = 0;
  i64 nodes = 0;
  // Substrate counters accumulated over the epoch.
  i64 tiles_jumped = 0;
  i64 bmma_ops = 0;
  // Epilogue fusion accounting: requantizing stages the model's rewrite pass
  // runs fused per forward pass, and the int32 intermediate bytes those
  // stages never materialised (per epoch, averaged over rounds).
  i64 epilogue_fused_layers = 0;
  i64 int32_bytes_avoided = 0;
  // Requantized values clamped at a stage's qmax, fused or not (per epoch,
  // averaged over rounds): nonzero when a batch's range exceeds what
  // calibration planned for.
  i64 saturated = 0;
  // Transfer accounting (bytes staged + modelled PCIe seconds). Filled
  // post-hoc by transfer_accounting(); in streaming mode run_quantized also
  // fills them inline, per epoch.
  i64 packed_bytes = 0;
  double packed_transfer_seconds = 0.0;
  i64 dense_bytes = 0;
  double dense_transfer_seconds = 0.0;
  // Adjacency share of the packed payload (tile-CSR bytes).
  i64 adj_bytes = 0;
  // Overlap accounting (streaming mode): modelled wire time NOT hidden
  // behind compute on the two-engine replay (see pipeline.hpp). 0 in
  // precomputed mode, where transfers are entirely post-hoc.
  double exposed_transfer_seconds = 0.0;
  // Peak bytes of simultaneously-live prepared batch data: the resident set
  // (the whole epoch in precomputed mode, the pinned batches in streaming
  // mode) plus the executor's O(pipeline_depth) high-water.
  i64 peak_prepared_bytes = 0;
  // Staging-slot allocation high-water (streaming ship stage).
  i64 staging_capacity_bytes = 0;
  // Kernel-reported process peak RSS (VmHWM), for bench JSON output.
  i64 vm_hwm_bytes = 0;
  // Feature/CSR bytes read from the batch source during the timed epochs'
  // prepare stages (per epoch, averaged over rounds). 0 when every batch
  // was resident (precomputed, or pinned under the budget).
  i64 prepare_bytes_read = 0;
  // Timed-epoch batches taken from the resident set (hits) vs prepared on
  // the timed path (misses), per epoch, plus the resident set's bytes at the
  // end of the run (the whole epoch when precomputed, the pinned batches
  // when streaming).
  i64 cache_hits = 0;
  i64 cache_misses = 0;
  i64 cache_resident_bytes = 0;
  // Total mmap'd store bytes (feature chunks + CSR shards); 0 for in-core
  // engines.
  i64 mapped_bytes = 0;
  // Per-stage busy/stall decomposition of the executor (summed over each
  // stage's workers, averaged over rounds). In precomputed mode prepare and
  // ship are a lookup and a no-op, so nearly all the time is compute busy.
  // A stalling prepare stage wants more depth or fewer preparers; a stalling
  // compute stage means prepare or ship is the straggler.
  StageTimes stage_breakdown;
  // Execution setup the run used (for reporting / JSON bench output).
  const char* backend = "";
  int inter_batch_threads = 1;
  bool streaming = false;
  int pipeline_depth = 0;
  int prepare_threads = 0;
};

class QgtcEngine {
 public:
  /// Prepares partitions, batches and the calibrated quantized model; in
  /// precomputed mode also materialises every batch's data (all of this is
  /// preprocessing, untimed). Calibration is hoisted in both modes: the
  /// representative batch is prepared first and calibrated before any
  /// pipeline starts, so streaming and precomputed runs quantize with
  /// identical shifts.
  QgtcEngine(const Dataset& dataset, const EngineConfig& cfg);

  /// Same pipeline over an out-of-core store: the global CSR is walked
  /// through the store's mmap'd shard view and features gather through the
  /// FeatureStore — bit-identical to the in-core constructor on the same
  /// dataset (the store round-trips the exact bytes).
  QgtcEngine(const store::DatasetStore& dstore, const EngineConfig& cfg);

  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  [[nodiscard]] const gnn::QgtcModel& model() const { return model_; }
  [[nodiscard]] i64 num_batches() const { return static_cast<i64>(batches_.size()); }

  /// Re-points subsequent runs at a different backend / worker count without
  /// rebuilding partitions, batches or the model (the backend-sweep bench).
  void set_execution(tcsim::BackendKind backend, int inter_batch_threads);

  /// Quantized QGTC inference over every batch, `rounds` epochs averaged.
  /// When `logits_out` is non-null it receives each batch's int32 logits
  /// (indexed by batch), captured identically in both modes — the
  /// streaming-equivalence test surface.
  EngineStats run_quantized(int rounds = 1,
                            std::vector<MatrixI32>* logits_out = nullptr);

  /// fp32 DGL-substitute inference over every batch.
  EngineStats run_fp32(int rounds = 1);

  /// Transfer accounting for the whole epoch (packed vs dense fp32, §4.6).
  /// Ships the batches' *prepared* planes — the exact bytes the device
  /// computes on; nothing is re-quantized on the accounting path. Streaming
  /// engines prepare one batch at a time here (bounded memory).
  EngineStats transfer_accounting() const;

  /// Zero-tile census across every batch adjacency (Figure 8's metric).
  /// Streaming engines take it from the partition-local lists.
  [[nodiscard]] double nonzero_tile_ratio() const;

  /// Per-batch prepared data: the graph-side `PreparedBatch` plus the
  /// host-packed quantized input planes (§4.6).
  struct BatchData : PreparedBatch {
    StackedBitTensor x_planes;
    [[nodiscard]] i64 prepared_bytes() const {
      return PreparedBatch::prepared_bytes() + x_planes.bytes();
    }
    /// Packs the tile-CSR adjacency and the *prepared* input planes into
    /// `slot` as-is — the step every ship stage and the transfer accounting
    /// share. The host quantized and decomposed the features exactly once,
    /// so the bytes on the wire are the bytes the device computes on.
    [[nodiscard]] transfer::PackedSubgraph pack(
        transfer::StagingBuffer& slot, const transfer::PcieModel& pcie) const {
      return transfer::pack_batch_tiles(adj_tiles, x_planes, slot, pcie);
    }
  };

  /// Shared-ownership handle to immutable prepared batch data. The resident
  /// set and in-flight pipeline items share one allocation.
  using BatchRef = std::shared_ptr<const BatchData>;

  /// Builds batch `i`'s complete data — the single prepare entry point both
  /// modes run (precomputed at construction, from the global CSR; streaming
  /// inside the pipeline's prepare stage, from the partition-local lists,
  /// which the first call builds). `build_fp32_csr=false`
  /// skips the fp32-only local CSR; the quantized streaming pipeline and
  /// the transfer accounting never read it. Always builds: it neither reads
  /// nor fills the resident set.
  [[nodiscard]] BatchRef prepare_batch(i64 i, bool build_fp32_csr = true) const;

  /// Builds complete batch data for an *arbitrary* subgraph batch — the
  /// serving layer's dynamic micro-batches ride the exact same prepare path
  /// as the epoch batches (`prepare_batch_data` + `QgtcModel::prepare_input`),
  /// so a request served online is bit-identical to the same batch
  /// membership run through the offline epoch path.
  [[nodiscard]] BatchRef prepare_subgraph(const SubgraphBatch& batch,
                                          bool build_fp32_csr = false) const;

  /// The global CSR this engine walks (in-core graph or mmap'd store view —
  /// the serving layer's ego-graph expansion traverses either).
  [[nodiscard]] const CsrView& graph() const { return graph_; }
  [[nodiscard]] const DatasetSpec& spec() const { return spec_; }

  /// Cumulative source bytes read by prepare_batch / prepare_subgraph since
  /// construction.
  [[nodiscard]] i64 prepare_bytes_read() const {
    return prepare_bytes_read_.load(std::memory_order_relaxed);
  }
  /// Resident bytes of the partition-local lists: 0 until a streaming
  /// engine's first `prepare_batch` or `nonzero_tile_ratio` call, and always
  /// 0 for precomputed engines and the serving layer's engine.
  [[nodiscard]] i64 partition_lists_bytes() const {
    return lists_bytes_.load(std::memory_order_acquire);
  }
  /// Total mmap'd store bytes backing this engine (0 in-core).
  [[nodiscard]] i64 mapped_bytes() const {
    return dstore_ != nullptr ? dstore_->mapped_bytes() : 0;
  }

  /// Precomputed mode only: the materialised per-batch data (exposed for
  /// the ablation/zero-tile benches). Throws in streaming mode, which never
  /// holds a full epoch.
  [[nodiscard]] const std::vector<BatchRef>& batch_data() const {
    QGTC_CHECK(!cfg_.mode.streaming(),
               "batch_data() is precomputed-mode only; streaming engines "
               "never materialise the epoch");
    return resident_;
  }

 private:
  void init();

  /// The epoch batches' partition-local adjacency, built on first use.
  const PartitionAdjacency& partition_lists() const;

  /// The one prepare path behind prepare_batch and prepare_subgraph:
  /// prepare_batch_data (tiles from `lists`, else the CSR), then the
  /// quantized input planes.
  BatchRef prepare(const SubgraphBatch& batch, const PartitionAdjacency* lists,
                   bool build_fp32_csr) const;

  EngineConfig cfg_;
  const store::DatasetStore* dstore_ = nullptr;  // store-backed engines only
  DatasetSpec spec_;
  CsrView graph_;
  store::FeatureSource features_;
  gnn::QgtcModel model_;
  std::vector<SubgraphBatch> batches_;
  /// One slot per epoch batch: all filled at construction when precomputed,
  /// pinned by run_quantized's prepare stage up to the budget when
  /// streaming. A filled slot is never emptied.
  std::vector<BatchRef> resident_;
  std::atomic<i64> resident_bytes_{0};
  // Streaming mode only; see partition_lists().
  mutable std::once_flag lists_once_;
  mutable PartitionAdjacency lists_;
  mutable std::atomic<i64> lists_bytes_{0};
  mutable std::atomic<i64> prepare_bytes_read_{0};
};

}  // namespace qgtc::core
