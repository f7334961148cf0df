// QgtcEngine — the public end-to-end pipeline a downstream user adopts:
// dataset -> METIS-substitute partitioning -> subgraph batching -> packed
// transfer -> per-batch quantized GNN inference on the tensor-core
// substrate, with the fp32 DGL-substitute path available for comparison.
//
// Two execution modes share one bit-identical per-batch prepare path
// (`prepare_batch_data` + `QgtcModel::prepare_input`):
//
// * **Precomputed** (legacy, default): every batch's adjacency tiles, local
//   CSR, fp32 features and quantized planes are materialised up front
//   (untimed preprocessing, O(epoch) resident); reported inference
//   time covers the quantized forward pass only, and host->device transfer
//   is accounted post-hoc via `transfer_accounting()` — the paper's §6
//   timing protocol.
// * **Streaming** (`EngineConfig::streaming`): one epoch flows through the
//   three-stage prepare/ship/compute pipeline (`core/pipeline.hpp`) with
//   bounded queues, so peak memory is O(pipeline_depth) batches and the
//   PCIe model is charged inline on the timed path, with overlap accounting
//   (`exposed_transfer_seconds`). Logits, `bmma_ops`, `tiles_jumped` and
//   `nodes` are bit-identical to precomputed mode on every backend.
//
// Every batch adjacency is a tile-CSR of its nonzero 8x128 tiles, so
// zero-tile jumping (§4.3) is structural in both modes.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "obs/metrics.hpp"
#include "store/batch_cache.hpp"
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
  /// Partition-batches executed concurrently by run_quantized / run_fp32
  /// (each worker owns a private ExecutionContext; counters and stats merge
  /// deterministically). 1 = the sequential legacy schedule. In streaming
  /// mode this is the compute-stage worker count.
  int inter_batch_threads = 1;
  /// Epoch execution discipline (see RunMode).
  RunMode mode;
  /// Byte budget of the cross-epoch prepared-batch cache consulted at the
  /// shared prepare entry (prepare_batch / prepare_subgraph). 0 disables
  /// caching entirely (pure pass-through). Hits skip prepare + pack and ship
  /// zero bytes (device-resident reuse); results stay bit-identical either
  /// way because cached entries ARE the prepared data.
  i64 cache_budget_bytes = 0;
  /// Shard filter: when non-empty, this engine runs only the listed *global*
  /// batch ids (indices into the unfiltered epoch batch list). Partitioning,
  /// batching, model creation and calibration are all computed on the full
  /// graph first — identical across every shard of a sharded run — so a
  /// filtered engine's per-batch results are bit-identical to the same
  /// batches in an unfiltered run. Empty = run every batch (the default).
  std::vector<i64> shard_batches;
};

struct EngineStats {
  // Forward-pass wall time over one full epoch (all batches), seconds. In
  // streaming mode this is the full pipeline wall time: prepare, packed
  // transfer and compute, overlapped.
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
  // Peak bytes of simultaneously-live prepared batch data: the whole epoch
  // in precomputed mode, the O(pipeline_depth) high-water in streaming mode.
  i64 peak_prepared_bytes = 0;
  // Staging-slot allocation high-water (streaming ship stage).
  i64 staging_capacity_bytes = 0;
  // Kernel-reported process peak RSS (VmHWM), for bench JSON output.
  i64 vm_hwm_bytes = 0;
  // Feature/CSR bytes read from the batch source during the timed epochs'
  // prepare stages (per epoch, averaged over rounds). 0 when every batch
  // hit the cache or the epoch was precomputed.
  i64 prepare_bytes_read = 0;
  // BatchCache activity during the timed epochs (per epoch, averaged over
  // rounds) plus the cache's resident footprint at the end of the run.
  i64 cache_hits = 0;
  i64 cache_misses = 0;
  i64 cache_evictions = 0;
  i64 cache_resident_bytes = 0;
  // Total mmap'd store bytes (feature chunks + CSR shards); 0 for in-core
  // engines.
  i64 mapped_bytes = 0;
  // Streaming mode: per-stage busy/stall decomposition of the pipeline
  // (summed over each stage's workers, averaged over rounds). All zeros in
  // precomputed mode, which has no inter-stage queues to stall on. This is
  // the signal the adaptive-depth / worker-resizing roadmap items consume:
  // a stalling prepare stage wants more depth or fewer preparers; a
  // stalling compute stage means prepare or ship is the straggler.
  struct StageBreakdownSet {
    obs::StageBreakdown prepare;
    obs::StageBreakdown ship;
    obs::StageBreakdown compute;
  };
  StageBreakdownSet stage_breakdown;
  // Sharded-run accounting (filled by ShardedEngine; single-engine runs keep
  // the defaults). Halo traffic is the boundary-feature movement between
  // shards over the modelled interconnect (comm::InterconnectModel), per
  // epoch; `exposed_halo_seconds` is the share of that wire time NOT hidden
  // behind shard compute on the two-engine overlap replay.
  int shards = 1;
  i64 halo_nodes = 0;
  i64 halo_bytes = 0;
  double halo_wire_seconds = 0.0;
  double exposed_halo_seconds = 0.0;
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

  /// Retunes the streaming pipeline's queue depth for subsequent runs (the
  /// online adaptive-depth hook the sharded coordinator drives from stage
  /// stall telemetry). No effect on results — depth only bounds residency
  /// and overlap. Precomputed-mode engines accept and ignore it.
  void set_pipeline_depth(int depth);

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
  [[nodiscard]] double nonzero_tile_ratio() const;

  /// Per-batch prepared data: the graph-side `PreparedBatch` plus the
  /// host-packed quantized input planes (§4.6).
  struct BatchData : PreparedBatch {
    StackedBitTensor x_planes;
    [[nodiscard]] i64 prepared_bytes() const {
      return PreparedBatch::prepared_bytes() + x_planes.bytes();
    }
  };

  /// Shared-ownership handle to immutable prepared batch data. The cache,
  /// the precomputed epoch store and in-flight pipeline items all share one
  /// allocation; eviction never invalidates a consumer.
  using BatchRef = std::shared_ptr<const BatchData>;

  /// Builds batch `i`'s complete data from the global CSR + features — the
  /// single prepare entry point both modes run (precomputed at construction,
  /// streaming inside the pipeline's prepare stage). `build_fp32_csr=false`
  /// skips the fp32-only local CSR; the quantized streaming pipeline and
  /// the transfer accounting never read it.
  /// Consults the BatchCache first when a budget is configured;
  /// `cache_hit` (optional) reports whether the returned data came from it.
  [[nodiscard]] BatchRef prepare_batch(i64 i, bool build_fp32_csr = true,
                                       bool* cache_hit = nullptr) const;

  /// Builds complete batch data for an *arbitrary* subgraph batch — the
  /// serving layer's dynamic micro-batches ride the exact same prepare path
  /// as the epoch batches (`prepare_batch_data` + `QgtcModel::prepare_input`),
  /// so a request served online is bit-identical to the same batch
  /// membership run through the offline epoch path.
  [[nodiscard]] BatchRef prepare_subgraph(const SubgraphBatch& batch,
                                          bool build_fp32_csr = false,
                                          bool* cache_hit = nullptr) const;

  /// The dataset this engine serves when constructed in-core. Store-backed
  /// engines have no materialised Dataset — use graph() / spec() instead.
  [[nodiscard]] const Dataset& dataset() const {
    QGTC_CHECK(dataset_ != nullptr,
               "store-backed engine has no in-core Dataset; use graph()");
    return *dataset_;
  }

  /// The global CSR this engine walks (in-core graph or mmap'd store view —
  /// the serving layer's ego-graph expansion traverses either).
  [[nodiscard]] const CsrView& graph() const { return graph_; }
  [[nodiscard]] const DatasetSpec& spec() const { return spec_; }

  /// Cumulative BatchCache activity since construction (both run modes; the
  /// per-run EngineStats carry the timed-epoch delta instead).
  [[nodiscard]] store::BatchCacheStats cache_stats() const {
    return cache_.stats();
  }
  /// Cumulative source bytes read by prepare misses since construction.
  [[nodiscard]] i64 prepare_bytes_read() const {
    return prepare_bytes_read_.load(std::memory_order_relaxed);
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
    return data_;
  }

 private:
  void init();

  EngineStats run_quantized_precomputed(int rounds,
                                        std::vector<MatrixI32>* logits_out);
  EngineStats run_quantized_streaming(int rounds,
                                      std::vector<MatrixI32>* logits_out);
  EngineStats run_fp32_streaming(int rounds);

  /// Stamps the timed-section cache/store deltas into `stats`.
  void stamp_cache_stats(EngineStats& stats,
                         const store::BatchCacheStats& before, i64 bytes_before,
                         int rounds) const;

  EngineConfig cfg_;
  const Dataset* dataset_ = nullptr;             // in-core engines only
  const store::DatasetStore* dstore_ = nullptr;  // store-backed engines only
  DatasetSpec spec_;
  CsrView graph_;
  store::FeatureSource features_;
  gnn::QgtcModel model_;
  std::vector<SubgraphBatch> batches_;
  std::vector<BatchRef> data_;  // precomputed mode only
  /// Keyed by membership + this fingerprint (quantization config).
  u64 cache_fingerprint_ = 0;
  mutable store::BatchCache<BatchData> cache_;
  mutable std::atomic<i64> prepare_bytes_read_{0};
};

/// The global epoch batch list an engine with `cfg` runs before any shard
/// filter: METIS-substitute partitioning + partition batching, exactly as
/// QgtcEngine::init computes it. The sharded coordinator plans shard
/// assignments over this list, so a plan's global batch ids line up with
/// every shard engine's view by construction.
std::vector<SubgraphBatch> make_epoch_batches(const CsrView& g,
                                              const EngineConfig& cfg);

/// Packs an already-prepared batch (tile-CSR adjacency + input planes) into
/// `slot` — the pack-into-slot step shared by the streaming ship stage,
/// transfer accounting, and the serving pipeline's ship stage. Ships the
/// *prepared* input planes as-is: the host quantized and decomposed the
/// features exactly once, so the bytes on the wire are byte-for-byte the
/// bytes the device computes on.
transfer::PackedSubgraph pack_prepared_batch(const QgtcEngine::BatchData& bd,
                                             transfer::StagingBuffer& slot,
                                             const transfer::PcieModel& pcie);

}  // namespace qgtc::core
