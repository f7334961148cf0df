// GNN layer configuration and weights. Two model families from the paper's
// evaluation (§6): Cluster GCN (aggregate -> update, hidden dim 16) and
// Batched GIN (update -> aggregate, hidden dim 64).
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc::gnn {

enum class ModelKind { kClusterGCN, kBatchedGIN };

[[nodiscard]] const char* model_name(ModelKind k);

struct GnnConfig {
  ModelKind kind = ModelKind::kClusterGCN;
  int num_layers = 3;
  i64 in_dim = 0;
  i64 hidden_dim = 16;
  i64 out_dim = 0;      // number of classes
  int feat_bits = 8;    // s: activation bitwidth
  int weight_bits = 8;  // t: weight bitwidth

  // Kernel options (the §4 optimisations; all individually toggleable so the
  // ablation bench can isolate each).
  bool zero_tile_jump = true;
  ReuseMode reuse = ReuseMode::kCrossTile;
  bool fused_epilogue = true;

  /// Per-layer bit-width selection at calibration: each requantizing stage
  /// (and each cached weight tensor) stores only the planes its calibrated
  /// value range needs, up to feat_bits/weight_bits. Exact on the
  /// calibration batch; other batches clamp into the narrowed range.
  bool per_layer_bits = true;

  /// GIN variant: 2-layer MLP update (w then w2) instead of a single linear
  /// layer (§2.1: "a single fully connected layer or an MLP").
  bool gin_mlp = false;

  /// Output dimension of layer `l` (hidden for all but the last).
  [[nodiscard]] i64 layer_out(int l) const {
    return l + 1 == num_layers ? out_dim : hidden_dim;
  }
  /// Input dimension of layer `l`.
  [[nodiscard]] i64 layer_in(int l) const {
    return l == 0 ? in_dim : hidden_dim;
  }
};

/// Per-layer fp32 master weights (in_dim x out_dim, no bias).
/// `w2` (out_dim x out_dim) is present only for MLP updates (gin_mlp).
struct LayerWeights {
  MatrixF w;
  MatrixF w2;  // empty unless cfg.gin_mlp
};

/// Xavier-uniform initialised weights for every layer, deterministic in seed.
std::vector<LayerWeights> init_weights(const GnnConfig& cfg, u64 seed);

}  // namespace qgtc::gnn
