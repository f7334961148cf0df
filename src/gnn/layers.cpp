#include "gnn/layers.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace qgtc::gnn {

const char* model_name(ModelKind k) {
  return k == ModelKind::kClusterGCN ? "Cluster GCN" : "Batched GIN";
}

std::vector<LayerWeights> init_weights(const GnnConfig& cfg, u64 seed) {
  QGTC_CHECK(cfg.num_layers >= 1, "model needs at least one layer");
  QGTC_CHECK(cfg.in_dim > 0 && cfg.out_dim > 0, "in/out dims must be set");
  QGTC_CHECK(cfg.num_layers == 1 || cfg.hidden_dim > 0,
             "hidden_dim must be positive when num_layers > 1");
  std::vector<LayerWeights> ws;
  ws.reserve(static_cast<std::size_t>(cfg.num_layers));
  Rng rng(seed);
  for (int l = 0; l < cfg.num_layers; ++l) {
    const i64 fan_in = cfg.layer_in(l);
    const i64 fan_out = cfg.layer_out(l);
    const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
    MatrixF w(fan_in, fan_out);
    for (i64 i = 0; i < w.size(); ++i) w.data()[i] = rng.next_float(-bound, bound);
    LayerWeights lw{std::move(w), {}};
    if (cfg.gin_mlp) {
      const float b2 = std::sqrt(6.0f / static_cast<float>(2 * fan_out));
      lw.w2 = MatrixF(fan_out, fan_out);
      for (i64 i = 0; i < lw.w2.size(); ++i) {
        lw.w2.data()[i] = rng.next_float(-b2, b2);
      }
    }
    ws.push_back(std::move(lw));
  }
  return ws;
}

}  // namespace qgtc::gnn
