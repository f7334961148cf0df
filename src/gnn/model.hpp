// QGTC model runner: the per-batch quantized forward pass built on the
// kernel stack, plus the fp32 DGL-substitute path it is benchmarked against.
//
// The model compiles to one stage list (paper §4.5: every layer is two
// stages with the requantize -> activate -> re-pack epilogue fused at the
// boundary between them):
//   Cluster GCN layer: aggregate, update
//   Batched GIN layer: update, aggregate   (gin_mlp: update, update, aggregate)
// Forward, calibration and the fp32 reference all walk that one list. The
// final stage emits int32 logits (full precision for softmax, §4.5); every
// other stage emits packed planes in the layout its consumer reads
// (§4.2's padding rules): kColMajorK when the next stage aggregates (B side
// of A x X), kRowMajorK when it updates (A side of X x W). prepare_input
// packs the input by the same rule for stage 0.
#pragma once

#include "bittensor/stacked.hpp"
#include "gnn/layers.hpp"
#include "graph/batching.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc::gnn {

/// Per-batch kernel statistics surfaced to the engine / benches.
struct ForwardStats {
  i64 tiles_jumped = 0;
  i64 bmma_ops = 0;
  i64 int32_bytes_avoided = 0;
  i64 saturated = 0;  // requantized values clamped at a stage's qmax
};

/// Per-stage epilogue rewrite decision. Built at construction from the
/// config; rshift and out_bits are filled in by calibration. The same plan
/// drives the fused epilogue and the unfused fallback, so the two paths are
/// bit-identical by construction.
struct EpiloguePlan {
  int rshift = 0;
  int out_bits = 8;
  tcsim::Activation act = tcsim::Activation::kIdentity;
  bool fused = true;
};

/// Neighbour aggregation A x X, or the dense update X x W.
enum class StageOp { kAggregate, kUpdate };

/// One entry of the compiled stage list.
struct Stage {
  StageOp op = StageOp::kAggregate;
  int weight = -1;  // index into the cached weight planes (updates only)
  EpiloguePlan plan;
  bool last = false;  // emits the int32 logits instead of packed planes
};

class QgtcModel {
 public:
  /// Builds a model with Xavier weights quantized to cfg.weight_bits.
  /// Weight bit-planes are cached in the update-side (kColMajorK) layout —
  /// the §3.2 observation that W is reused across all subgraphs of a layer.
  static QgtcModel create(const GnnConfig& cfg, u64 seed);

  /// Builds from existing fp32 weights (e.g. QAT-trained).
  static QgtcModel from_weights(const GnnConfig& cfg,
                                std::vector<LayerWeights> weights);

  [[nodiscard]] const GnnConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<LayerWeights>& weights() const {
    return fp_weights_;
  }

  /// One-time requantization calibration (paper's fused epilogue needs the
  /// per-layer right-shift fixed before inference; we derive it from one
  /// representative batch, the standard post-training-calibration recipe).
  void calibrate(const BitMatrix& adj, const MatrixF& x);
  /// Calibration over a tile-CSR adjacency (the sparse-adjacency engine mode
  /// never materialises the dense batch matrix, calibration included).
  void calibrate(const TileSparseBitMatrix& adj, const MatrixF& x);
  [[nodiscard]] bool calibrated() const { return calibrated_; }

  /// Quantized QGTC forward for one batch: returns int32 logits
  /// (batch_nodes x out_dim). `adj` is the batch's binary adjacency
  /// (kRowMajorK); `x` the gathered fp32 features. Quantizes + packs the
  /// input inline — convenient, but production callers should pre-pack with
  /// `prepare_input` (the paper packs on the host before transfer, §4.6).
  /// `ctx` selects the substrate backend / counter sink (null = process
  /// default context).
  MatrixI32 forward_quantized(const BitMatrix& adj, const MatrixF& x,
                              ForwardStats* stats = nullptr,
                              const tcsim::ExecutionContext* ctx = nullptr) const;

  /// Host-side input packing: quantize to feat_bits and bit-decompose in the
  /// layout the first stage consumes (kColMajorK for GCN, kRowMajorK for GIN).
  [[nodiscard]] StackedBitTensor prepare_input(const MatrixF& x) const;

  /// Forward over a pre-packed input. `tile_map` (optional) is the cached
  /// zero-tile map of `adj`, reused across layers and bit-planes (§3.2).
  /// Every kernel in the pass runs on `ctx`'s backend and notes its counters
  /// into `ctx`'s sink; per-worker contexts make concurrent batch streams
  /// race-free (the engine's inter-batch parallelism).
  MatrixI32 forward_prepared(const BitMatrix& adj, const TileMap* tile_map,
                             const StackedBitTensor& x_planes,
                             ForwardStats* stats = nullptr,
                             const tcsim::ExecutionContext* ctx = nullptr) const;

  /// Forward over a tile-CSR adjacency: every aggregation consumes the
  /// stored tiles directly, so zero-tile jumping is structural (no flag map
  /// to build, cache or test). Bit-identical to the dense path.
  MatrixI32 forward_prepared(const TileSparseBitMatrix& adj,
                             const StackedBitTensor& x_planes,
                             ForwardStats* stats = nullptr,
                             const tcsim::ExecutionContext* ctx = nullptr) const;

  /// fp32 reference forward (the DGL-substitute path) over the batch's
  /// local CSR. Returns fp32 logits.
  MatrixF forward_fp32(const CsrGraph& local, const MatrixF& x) const;

  /// Requantizing stages the forward pass runs through the fused epilogue
  /// (0 when fusion is disabled).
  [[nodiscard]] int fused_stage_count() const;

  /// Per-layer stage plans (tests and diagnostics): layer l's aggregation,
  /// and its k-th update (k = 1 is the second gin_mlp stage).
  [[nodiscard]] const EpiloguePlan& agg_plan(int l) const;
  [[nodiscard]] const EpiloguePlan& upd_plan(int l, int k = 0) const;

 private:
  GnnConfig cfg_;
  std::vector<LayerWeights> fp_weights_;
  std::vector<Stage> stages_;
  std::vector<StackedBitTensor> w_planes_;  // per update stage, kColMajorK
  bool calibrated_ = false;

  /// Compiles the stage list from the config (the rewrite pass; rshift and
  /// out_bits are completed by calibrate()).
  void build_plan();

  /// Caches every update stage's weights as packed planes.
  void quantize_weights();

  /// fp32 master weights of the update stage with weight index `k`.
  [[nodiscard]] const MatrixF& fp_weight(int k) const;

  /// Plan of the `nth` stage (0-based) whose op is `op`.
  [[nodiscard]] const EpiloguePlan& nth_plan(StageOp op, int nth) const;

  /// Runs the stage list, generic over the adjacency representation (dense
  /// BitMatrix or TileSparseBitMatrix — the aggregate kernels overload on
  /// it). `tile_map` is dense-only; sparse passes null. With `calibrating`
  /// (the model's own stage list) every stage runs unfused and records the
  /// rshift/out_bits it observes into that list.
  template <typename Adj>
  MatrixI32 run_stages(const Adj& adj, const TileMap* tile_map,
                       const StackedBitTensor& x_planes, ForwardStats* stats,
                       const tcsim::ExecutionContext* ctx,
                       std::vector<Stage>* calibrating) const;
};

}  // namespace qgtc::gnn
