#include "gnn/model.hpp"

#include <algorithm>
#include <bit>

#include "baselines/dgl_fp32.hpp"

namespace qgtc::gnn {

namespace {

/// Planes required to represent non-negative value `v` (>= 1).
int bits_needed(i32 v) {
  return v <= 0 ? 1 : 32 - std::countl_zero(static_cast<u32>(v));
}

i32 max_value(const MatrixI32& m) {
  i32 mx = 0;
  for (i64 i = 0; i < m.size(); ++i) mx = std::max(mx, m.data()[i]);
  return mx;
}

/// Update stages per layer: the gin_mlp update is two GEMMs (w, then w2).
int updates_per_layer(const GnnConfig& cfg) {
  return cfg.kind == ModelKind::kBatchedGIN && cfg.gin_mlp ? 2 : 1;
}

/// Layout of the packed activation a stage consumes: aggregation reads it
/// as the B side of A x X, an update as the A side of X x W.
BitLayout operand_layout(StageOp op) {
  return op == StageOp::kAggregate ? BitLayout::kColMajorK
                                   : BitLayout::kRowMajorK;
}

/// The stage plan's epilogue, in kernel form (fused to-bit paths).
FusedEpilogue epi_of(const EpiloguePlan& p) {
  FusedEpilogue e;
  e.act = p.act;
  e.rshift = p.rshift;
  return e;
}

/// Standalone requantization of an int32 activation matrix, in place,
/// through the one shared epilogue definition — bit-identical to what the
/// fused flush applies tile-by-tile. Returns the saturated-value count.
u64 requant_inplace(MatrixI32& m, const EpiloguePlan& p) {
  const tcsim::EpilogueSpec spec{p.act, p.rshift,
                                 static_cast<i32>((u32{1} << p.out_bits) - 1)};
  return tcsim::apply_epilogue_span(m.data(), m.size(), spec);
}

/// fp32 mirror of a stage's activation. relu/identity are exact
/// counterparts of the quantized epilogue; relu6/hardswish use the same
/// quantized-domain constants and are reference-only approximations.
void activate_fp32(MatrixF& m, tcsim::Activation act) {
  switch (act) {
    case tcsim::Activation::kIdentity:
      break;
    case tcsim::Activation::kRelu:
      baselines::relu_inplace(m);
      break;
    case tcsim::Activation::kRelu6:
      for (i64 i = 0; i < m.size(); ++i) {
        m.data()[i] = std::clamp(m.data()[i], 0.0f, 6.0f);
      }
      break;
    case tcsim::Activation::kHardswish:
      for (i64 i = 0; i < m.size(); ++i) {
        const float v = m.data()[i];
        m.data()[i] = v * std::clamp(v + 3.0f, 0.0f, 6.0f) / 6.0f;
      }
      break;
  }
}

}  // namespace

QgtcModel QgtcModel::create(const GnnConfig& cfg, u64 seed) {
  return from_weights(cfg, init_weights(cfg, seed));
}

QgtcModel QgtcModel::from_weights(const GnnConfig& cfg,
                                  std::vector<LayerWeights> weights) {
  QGTC_CHECK(static_cast<int>(weights.size()) == cfg.num_layers,
             "weight count does not match layer count");
  QgtcModel m;
  m.cfg_ = cfg;
  m.fp_weights_ = std::move(weights);
  m.build_plan();
  m.quantize_weights();
  return m;
}

void QgtcModel::build_plan() {
  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  stages_.clear();
  int weight = 0;
  const auto add = [&](StageOp op, tcsim::Activation act) {
    const int w = op == StageOp::kUpdate ? weight++ : -1;
    stages_.push_back({op, w, {0, cfg_.feat_bits, act, cfg_.fused_epilogue}});
  };
  // Aggregations never activate (the paper's GCN/GIN layers put the
  // nonlinearity on the update); the last layer's update stays linear for
  // the logits, except the first gin_mlp GEMM, which activates on every layer.
  constexpr auto kAgg = StageOp::kAggregate, kUpd = StageOp::kUpdate;
  constexpr auto kIdentity = tcsim::Activation::kIdentity;
  for (int l = 0; l < cfg_.num_layers; ++l) {
    const tcsim::Activation act =
        l + 1 == cfg_.num_layers ? kIdentity : cfg_.activation;
    if (gcn) {
      add(kAgg, kIdentity);
      add(kUpd, act);
    } else {
      if (updates_per_layer(cfg_) == 2) add(kUpd, cfg_.activation);
      add(kUpd, act);
      add(kAgg, kIdentity);
    }
  }
  stages_.back().last = true;
}

int QgtcModel::fused_stage_count() const {
  return static_cast<int>(std::count_if(
      stages_.begin(), stages_.end(),
      [](const Stage& s) { return !s.last && s.plan.fused; }));
}

const MatrixF& QgtcModel::fp_weight(int k) const {
  const int per_layer = updates_per_layer(cfg_);
  const LayerWeights& lw = fp_weights_[static_cast<std::size_t>(k / per_layer)];
  return k % per_layer == 1 ? lw.w2 : lw.w;
}

const EpiloguePlan& QgtcModel::nth_plan(StageOp op, int nth) const {
  for (const Stage& s : stages_) {
    if (s.op == op && nth-- == 0) return s.plan;
  }
  throw std::out_of_range("QgtcModel: no such stage");
}

const EpiloguePlan& QgtcModel::agg_plan(int l) const {
  return nth_plan(StageOp::kAggregate, l);
}

const EpiloguePlan& QgtcModel::upd_plan(int l, int k) const {
  return nth_plan(StageOp::kUpdate, l * updates_per_layer(cfg_) + k);
}

void QgtcModel::quantize_weights() {
  // Weights are quantized once and cached as packed planes (§3.2: W is
  // reused across every subgraph of a layer, so decomposition is
  // pre-computed). With per_layer_bits the cache keeps only the planes the
  // stage's actual code range occupies — always lossless, since the codes
  // are fixed at quantization time.
  w_planes_.clear();
  for (const Stage& s : stages_) {
    if (s.op != StageOp::kUpdate) continue;
    const MatrixF& w = fp_weight(s.weight);
    QGTC_CHECK(!w.empty(), "gin_mlp requires a second weight matrix");
    const MatrixI32 q =
        quantize_matrix(w, quant_params_from_data(w, cfg_.weight_bits));
    const int bits = cfg_.per_layer_bits
                         ? std::clamp(bits_needed(max_value(q)), 1,
                                      cfg_.weight_bits)
                         : cfg_.weight_bits;
    w_planes_.push_back(StackedBitTensor::decompose(
        q, bits, BitLayout::kColMajorK, PadPolicy::kTile8));
  }
}

void QgtcModel::calibrate(const TileSparseBitMatrix& adj, const MatrixF& x) {
  run_stages(adj, prepare_input(x), nullptr, nullptr, &stages_);
  calibrated_ = true;
}

StackedBitTensor QgtcModel::prepare_input(const MatrixF& x) const {
  const QuantParams xqp = quant_params_from_data(x, cfg_.feat_bits);
  return StackedBitTensor::quantize(x, xqp, operand_layout(stages_.front().op),
                                    PadPolicy::kTile8);
}

MatrixI32 QgtcModel::forward_quantized(const TileSparseBitMatrix& adj,
                                       const MatrixF& x, ForwardStats* stats,
                                       const tcsim::ExecutionContext* ctx) const {
  return forward_prepared(adj, prepare_input(x), stats, ctx);
}

MatrixI32 QgtcModel::run_stages(const TileSparseBitMatrix& adj,
                                const StackedBitTensor& x_planes,
                                ForwardStats* stats,
                                const tcsim::ExecutionContext* ctx,
                                std::vector<Stage>* calibrating) const {
  // `zero_tile_jump` gates the inline test on the update-side activation
  // planes; aggregation jumps structurally over the tile-CSR regardless.
  BmmOptions opt;
  opt.zero_tile_jump = cfg_.zero_tile_jump;
  opt.allow_overflow = (cfg_.feat_bits > 8 || cfg_.weight_bits > 8);
  opt.ctx = ctx;

  const tcsim::ExecutionContext& exec = resolve_ctx(opt);
  tcsim::Counters before;
  if (stats != nullptr) before = exec.counters();

  // `cur` tracks the packed activation between stages without copying the
  // caller's input planes. Each requantizing stage either runs its epilogue
  // fused (tile-local requantize + re-pack inside the flush, §4.5) or stages
  // through an int32 matrix and the same epilogue applied standalone — the
  // plan guarantees the two produce identical planes and tile schedules.
  const StackedBitTensor* cur = &x_planes;
  StackedBitTensor next;
  MatrixI32 logits;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& st = stages_[i];
    const bool agg = st.op == StageOp::kAggregate;
    const StackedBitTensor* w = agg ? nullptr : &w_planes_[st.weight];
    if (st.last) {
      logits = agg ? aggregate_1bit(adj, *cur, cfg_.reuse, opt)
                   : bitmm_fused_int(*cur, *w, {}, opt);
      break;
    }
    // Aggregation always feeds an update, so its fixed kRowMajorK output is
    // what the layout rule asks for.
    const BitLayout layout = operand_layout(stages_[i + 1].op);
    if (st.plan.fused && calibrating == nullptr) {
      next = agg ? aggregate_fused_bit(adj, *cur, st.plan.out_bits,
                                       epi_of(st.plan), opt, PadPolicy::kTile8)
                 : bitmm_fused_bit(*cur, *w, st.plan.out_bits,
                                   epi_of(st.plan), opt, PadPolicy::kTile8,
                                   layout);
      cur = &next;
      continue;
    }
    // Unfused: int32 accumulators in a per-stage arena slot (reused across
    // batches, so nothing is heap-allocated per stage); calibration owns its
    // one-off matrices instead of growing the arena.
    MatrixI32 owned;
    const i64 cols = agg ? cur->cols() : w->cols();
    MatrixI32& acc =
        calibrating != nullptr
            ? (owned = MatrixI32(adj.rows(), cols))
            : exec.workspace().int32_scratch(static_cast<int>(i), adj.rows(),
                                             cols);
    if (agg) {
      aggregate_1bit_into(adj, *cur, cfg_.reuse, acc, opt);
    } else {
      bitmm_fused_int_into(*cur, *w, acc, {}, opt);
    }
    // Calibration derives the shift from the observed maximum and, with
    // per_layer_bits, narrows the plane count to what the requantized range
    // occupies: exact on the calibration batch (the dropped high planes are
    // all-zero here), a clamp on any batch whose range exceeds it.
    EpiloguePlan plan = st.plan;
    if (calibrating != nullptr) {
      plan.rshift = calibrate_rshift(max_value(acc), cfg_.feat_bits);
      plan.out_bits = cfg_.feat_bits;
    }
    tcsim::Counters requant;
    requant.saturated = requant_inplace(acc, plan);
    exec.note(requant);
    if (calibrating != nullptr) {
      if (cfg_.per_layer_bits) {
        plan.out_bits =
            std::clamp(bits_needed(max_value(acc)), 1, plan.out_bits);
      }
      (*calibrating)[i].plan = plan;
    }
    next = StackedBitTensor::decompose(acc, plan.out_bits, layout,
                                       PadPolicy::kTile8);
    cur = &next;
  }

  if (stats != nullptr) {
    const tcsim::Counters after = exec.counters();
    stats->tiles_jumped += static_cast<i64>(after.tiles_jumped - before.tiles_jumped);
    stats->bmma_ops += static_cast<i64>(after.bmma_ops - before.bmma_ops);
    stats->int32_bytes_avoided += static_cast<i64>(after.int32_bytes_avoided -
                                                   before.int32_bytes_avoided);
    stats->saturated += static_cast<i64>(after.saturated - before.saturated);
  }
  return logits;
}

MatrixI32 QgtcModel::forward_prepared(const TileSparseBitMatrix& adj,
                                      const StackedBitTensor& x_planes,
                                      ForwardStats* stats,
                                      const tcsim::ExecutionContext* ctx) const {
  return run_stages(adj, x_planes, stats, ctx, nullptr);
}

MatrixF QgtcModel::forward_fp32(const CsrGraph& local, const MatrixF& x) const {
  MatrixF cur = x;
  for (const Stage& st : stages_) {
    cur = st.op == StageOp::kAggregate
              ? baselines::spmm_csr(local, cur, /*add_self=*/true)
              : baselines::gemm_f32(cur, fp_weight(st.weight));
    activate_fp32(cur, st.plan.act);
  }
  return cur;
}

}  // namespace qgtc::gnn
