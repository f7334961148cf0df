// GNN model tests: shapes, calibration, fused/unfused parity over the full
// forward pass, reuse-mode parity, determinism, GCN vs GIN wiring, the
// stage order against a hand-walked oracle (the dense flag-jump kernels, so
// the tile-CSR model is pinned against them), and directional agreement
// between the quantized and fp32 paths at high bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace qgtc::gnn {
namespace {

struct Fixture {
  Dataset ds;
  BitMatrix adj;                  // dense reference (the oracle's operand)
  TileSparseBitMatrix adj_tiles;  // what the model runs on
  CsrGraph local;
  MatrixF feats;

  explicit Fixture(i64 nodes = 300) {
    DatasetSpec spec{"t", nodes, nodes * 6, 16, 4, 4, 9};
    ds = generate_dataset(spec);
    PartitionResult parts = partition_graph(ds.graph, 4);
    auto batches = make_batches(parts, 4);  // single batch, whole graph
    adj = build_batch_adjacency(ds.graph, batches[0]);
    adj_tiles = build_batch_adjacency_tiles(ds.graph, batches[0]);
    local = build_batch_csr(ds.graph, batches[0]);
    feats = gather_rows(ds.features, batches[0].nodes);
  }

  GnnConfig config(ModelKind kind, int bits) const {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.num_layers = 3;
    cfg.in_dim = 16;
    cfg.hidden_dim = kind == ModelKind::kClusterGCN ? 16 : 64;
    cfg.out_dim = 4;
    cfg.feat_bits = bits;
    cfg.weight_bits = bits;
    return cfg;
  }
};

TEST(Layers, InitWeightsShapes) {
  GnnConfig cfg;
  cfg.num_layers = 3;
  cfg.in_dim = 10;
  cfg.hidden_dim = 8;
  cfg.out_dim = 5;
  const auto ws = init_weights(cfg, 1);
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0].w.rows(), 10);
  EXPECT_EQ(ws[0].w.cols(), 8);
  EXPECT_EQ(ws[1].w.rows(), 8);
  EXPECT_EQ(ws[1].w.cols(), 8);
  EXPECT_EQ(ws[2].w.rows(), 8);
  EXPECT_EQ(ws[2].w.cols(), 5);
}

TEST(Layers, LayerDimsHelper) {
  GnnConfig cfg;
  cfg.num_layers = 2;
  cfg.in_dim = 7;
  cfg.hidden_dim = 3;
  cfg.out_dim = 2;
  EXPECT_EQ(cfg.layer_in(0), 7);
  EXPECT_EQ(cfg.layer_out(0), 3);
  EXPECT_EQ(cfg.layer_in(1), 3);
  EXPECT_EQ(cfg.layer_out(1), 2);
}

TEST(Model, ForwardShapes) {
  Fixture f;
  for (const auto kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    QgtcModel m = QgtcModel::create(f.config(kind, 4), 11);
    m.calibrate(f.adj_tiles, f.feats);
    const MatrixI32 logits = m.forward_quantized(f.adj_tiles, f.feats);
    EXPECT_EQ(logits.rows(), f.adj.rows());
    EXPECT_EQ(logits.cols(), 4);
    const MatrixF ref = m.forward_fp32(f.local, f.feats);
    EXPECT_EQ(ref.rows(), f.adj.rows());
    EXPECT_EQ(ref.cols(), 4);
  }
}

TEST(Model, FusedMatchesUnfused) {
  Fixture f;
  for (const auto kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    GnnConfig fused_cfg = f.config(kind, 4);
    fused_cfg.fused_epilogue = true;
    GnnConfig unfused_cfg = fused_cfg;
    unfused_cfg.fused_epilogue = false;

    QgtcModel fused = QgtcModel::create(fused_cfg, 13);
    QgtcModel unfused = QgtcModel::create(unfused_cfg, 13);
    fused.calibrate(f.adj_tiles, f.feats);
    unfused.calibrate(f.adj_tiles, f.feats);
    EXPECT_EQ(fused.forward_quantized(f.adj_tiles, f.feats),
              unfused.forward_quantized(f.adj_tiles, f.feats))
        << model_name(kind);
  }
}

TEST(Model, ReuseModesIdentical) {
  Fixture f;
  GnnConfig a_cfg = f.config(ModelKind::kClusterGCN, 3);
  a_cfg.reuse = ReuseMode::kCrossBit;
  a_cfg.fused_epilogue = false;
  GnnConfig b_cfg = a_cfg;
  b_cfg.reuse = ReuseMode::kCrossTile;
  QgtcModel ma = QgtcModel::create(a_cfg, 17);
  QgtcModel mb = QgtcModel::create(b_cfg, 17);
  ma.calibrate(f.adj_tiles, f.feats);
  mb.calibrate(f.adj_tiles, f.feats);
  EXPECT_EQ(ma.forward_quantized(f.adj_tiles, f.feats),
            mb.forward_quantized(f.adj_tiles, f.feats));
}

/// `a` as a tile-CSR that stores every tile, zero or not: the layout with
/// zero-tile jumping turned off.
TileSparseBitMatrix every_tile(const TileSparseBitMatrix& a) {
  TileSparseBitMatrix out(a.rows(), a.cols());
  for (i64 tm = 0; tm < a.tiles_m(); ++tm) {
    i64 t = a.row_begin(tm);
    for (i64 tk = 0; tk < a.tiles_k(); ++tk) {
      u32* dst = out.append_tile(tm, tk);
      if (t < a.row_end(tm) && a.tile_col(t) == tk) {
        std::memcpy(dst, a.tile_words(t),
                    TileSparseBitMatrix::kTileWords * sizeof(u32));
        ++t;
      }
    }
  }
  out.finalize();
  return out;
}

TEST(Model, ZeroTileJumpIdentical) {
  Fixture f;
  GnnConfig on_cfg = f.config(ModelKind::kBatchedGIN, 4);
  on_cfg.zero_tile_jump = true;
  GnnConfig off_cfg = on_cfg;
  off_cfg.zero_tile_jump = false;
  QgtcModel on = QgtcModel::create(on_cfg, 19);
  QgtcModel off = QgtcModel::create(off_cfg, 19);
  const TileSparseBitMatrix all_tiles = every_tile(f.adj_tiles);
  ASSERT_EQ(all_tiles.nnz_tiles(), all_tiles.total_tiles());
  on.calibrate(f.adj_tiles, f.feats);
  off.calibrate(all_tiles, f.feats);

  ForwardStats s_on, s_off;
  EXPECT_EQ(on.forward_quantized(f.adj_tiles, f.feats, &s_on),
            off.forward_quantized(all_tiles, f.feats, &s_off));
  EXPECT_GT(s_on.tiles_jumped, 0);
  EXPECT_EQ(s_off.tiles_jumped, 0);
  EXPECT_LT(s_on.bmma_ops, s_off.bmma_ops);
}

TEST(Model, Deterministic) {
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 2), 23);
  m.calibrate(f.adj_tiles, f.feats);
  EXPECT_EQ(m.forward_quantized(f.adj_tiles, f.feats),
            m.forward_quantized(f.adj_tiles, f.feats));
}

TEST(Model, HighBitTracksFp32Ranking) {
  // At 8 bits the quantized argmax should agree with fp32 on a solid
  // majority of nodes (quantization is sign/ranking-preserving in the bulk).
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 8), 29);
  m.calibrate(f.adj_tiles, f.feats);
  const MatrixI32 q = m.forward_quantized(f.adj_tiles, f.feats);
  const MatrixF r = m.forward_fp32(f.local, f.feats);
  i64 agree = 0;
  for (i64 u = 0; u < q.rows(); ++u) {
    i64 qa = 0, ra = 0;
    for (i64 c = 1; c < q.cols(); ++c) {
      if (q(u, c) > q(u, qa)) qa = c;
      if (r(u, c) > r(u, ra)) ra = c;
    }
    agree += (qa == ra);
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(q.rows()), 0.6);
}

TEST(Model, HighBitsRunWithOverflowOptIn) {
  // 16-bit configuration (paper Figure 7 runs it) must execute without
  // throwing; overflow is defined-wrap.
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 16), 31);
  m.calibrate(f.adj_tiles, f.feats);
  const MatrixI32 logits = m.forward_quantized(f.adj_tiles, f.feats);
  EXPECT_EQ(logits.cols(), 4);
}

TEST(Model, GinMlpUpdateRuns) {
  Fixture f;
  GnnConfig cfg = f.config(ModelKind::kBatchedGIN, 4);
  cfg.gin_mlp = true;
  QgtcModel m = QgtcModel::create(cfg, 37);
  m.calibrate(f.adj_tiles, f.feats);
  const MatrixI32 logits = m.forward_quantized(f.adj_tiles, f.feats);
  EXPECT_EQ(logits.rows(), f.adj.rows());
  EXPECT_EQ(logits.cols(), 4);
  const MatrixF ref = m.forward_fp32(f.local, f.feats);
  EXPECT_EQ(ref.cols(), 4);
}

TEST(Model, GinMlpFusedMatchesUnfused) {
  Fixture f;
  GnnConfig fused_cfg = f.config(ModelKind::kBatchedGIN, 3);
  fused_cfg.gin_mlp = true;
  GnnConfig unfused_cfg = fused_cfg;
  unfused_cfg.fused_epilogue = false;
  QgtcModel fused = QgtcModel::create(fused_cfg, 41);
  QgtcModel unfused = QgtcModel::create(unfused_cfg, 41);
  fused.calibrate(f.adj_tiles, f.feats);
  unfused.calibrate(f.adj_tiles, f.feats);
  EXPECT_EQ(fused.forward_quantized(f.adj_tiles, f.feats),
            unfused.forward_quantized(f.adj_tiles, f.feats));
}

TEST(Model, GinMlpWeightShapes) {
  GnnConfig cfg;
  cfg.num_layers = 2;
  cfg.in_dim = 10;
  cfg.hidden_dim = 6;
  cfg.out_dim = 3;
  cfg.gin_mlp = true;
  const auto ws = init_weights(cfg, 1);
  EXPECT_EQ(ws[0].w2.rows(), 6);
  EXPECT_EQ(ws[0].w2.cols(), 6);
  EXPECT_EQ(ws[1].w2.rows(), 3);
  EXPECT_EQ(ws[1].w2.cols(), 3);
}

/// Weight planes of one fp32 matrix, by the rule the model caches them with.
StackedBitTensor oracle_weight_planes(const GnnConfig& cfg, const MatrixF& w) {
  const MatrixI32 q =
      quantize_matrix(w, quant_params_from_data(w, cfg.weight_bits));
  int bits = cfg.weight_bits;
  if (cfg.per_layer_bits) {
    const i32 mx = std::max(1, *std::max_element(q.data(), q.data() + q.size()));
    bits = std::min(32 - std::countl_zero(static_cast<u32>(mx)), bits);
  }
  return StackedBitTensor::decompose(q, bits, BitLayout::kColMajorK,
                                     PadPolicy::kTile8);
}

/// The paper's layer definitions walked by hand from the public kernels,
/// with the model's calibrated plans: GCN aggregates then updates, GIN
/// updates (twice with gin_mlp) then aggregates. Always fused — the unfused
/// model path must land on the same logits and tile schedule.
MatrixI32 oracle_forward(const QgtcModel& m, const BitMatrix& adj,
                         const StackedBitTensor& x, const BmmOptions& opt) {
  const GnnConfig& cfg = m.config();
  const auto epi = [](const EpiloguePlan& p) {
    FusedEpilogue e;
    e.act = p.act;
    e.rshift = p.rshift;
    return e;
  };
  const auto update = [&](const StackedBitTensor& in, const MatrixF& w,
                          const EpiloguePlan& p, BitLayout out) {
    return bitmm_fused_bit(in, oracle_weight_planes(cfg, w), p.out_bits,
                           epi(p), opt, PadPolicy::kTile8, out);
  };
  const auto aggregate = [&](const StackedBitTensor& in, const EpiloguePlan& p) {
    return aggregate_fused_bit(adj, in, p.out_bits, epi(p), opt,
                               PadPolicy::kTile8);
  };
  StackedBitTensor cur = x;
  for (int l = 0;; ++l) {
    const LayerWeights& lw = m.weights()[static_cast<std::size_t>(l)];
    const bool last = l + 1 == cfg.num_layers;
    if (cfg.kind == ModelKind::kClusterGCN) {
      const StackedBitTensor xn = aggregate(cur, m.agg_plan(l));
      if (last) {
        return bitmm_fused_int(xn, oracle_weight_planes(cfg, lw.w), {}, opt);
      }
      cur = update(xn, lw.w, m.upd_plan(l), BitLayout::kColMajorK);
    } else {
      StackedBitTensor xu;
      if (cfg.gin_mlp) {
        xu = update(cur, lw.w, m.upd_plan(l), BitLayout::kRowMajorK);
        xu = update(xu, lw.w2, m.upd_plan(l, 1), BitLayout::kColMajorK);
      } else {
        xu = update(cur, lw.w, m.upd_plan(l), BitLayout::kColMajorK);
      }
      if (last) return aggregate_1bit(adj, xu, cfg.reuse, opt);
      cur = aggregate(xu, m.agg_plan(l));
    }
  }
}

// Every other model parity test compares two paths through the model's own
// stage walk; this one checks the walk's stage order against the paper's.
TEST(Model, StageOrderMatchesHandWalkedOracle) {
  Fixture f;
  struct Case {
    ModelKind kind;
    bool mlp;
  };
  for (const Case c : {Case{ModelKind::kClusterGCN, false},
                       Case{ModelKind::kBatchedGIN, false},
                       Case{ModelKind::kBatchedGIN, true}}) {
    for (const bool fused : {true, false}) {
      GnnConfig cfg = f.config(c.kind, 4);
      cfg.gin_mlp = c.mlp;
      cfg.fused_epilogue = fused;
      QgtcModel m = QgtcModel::create(cfg, 43);
      m.calibrate(f.adj_tiles, f.feats);
      const std::string tag = std::string(model_name(c.kind)) +
                              (c.mlp ? "/mlp" : "") +
                              (fused ? "/fused" : "/unfused");

      const StackedBitTensor x = StackedBitTensor::decompose(
          quantize_matrix(f.feats, quant_params_from_data(f.feats, 4)), 4,
          c.kind == ModelKind::kClusterGCN ? BitLayout::kColMajorK
                                           : BitLayout::kRowMajorK,
          PadPolicy::kTile8);
      tcsim::ExecutionContext oracle_ctx(tcsim::default_backend());
      BmmOptions opt;
      opt.zero_tile_jump = cfg.zero_tile_jump;
      opt.ctx = &oracle_ctx;
      const MatrixI32 want = oracle_forward(m, f.adj, x, opt);

      tcsim::ExecutionContext model_ctx(tcsim::default_backend());
      ForwardStats stats;
      EXPECT_EQ(m.forward_prepared(f.adj_tiles, x, &stats, &model_ctx), want)
          << tag;
      EXPECT_EQ(stats.bmma_ops,
                static_cast<i64>(oracle_ctx.counters().bmma_ops))
          << tag;
      EXPECT_EQ(stats.tiles_jumped,
                static_cast<i64>(oracle_ctx.counters().tiles_jumped))
          << tag;
      EXPECT_EQ(m.forward_quantized(f.adj_tiles, f.feats), want) << tag;
    }
  }
}

TEST(Model, WeightCountMismatchThrows) {
  Fixture f;
  GnnConfig cfg = f.config(ModelKind::kClusterGCN, 4);
  auto ws = init_weights(cfg, 1);
  ws.pop_back();
  EXPECT_THROW(QgtcModel::from_weights(cfg, std::move(ws)),
               std::invalid_argument);
}

// A multi-layer model with a non-positive hidden_dim is rejected up front,
// with an error that names hidden_dim.
void expect_hidden_dim_rejected(ModelKind kind) {
  Fixture f;
  for (const i64 hidden : {i64{0}, i64{-1}}) {
    GnnConfig cfg = f.config(kind, 4);
    cfg.hidden_dim = hidden;
    try {
      (void)QgtcModel::create(cfg, 1);
      ADD_FAILURE() << "accepted hidden_dim " << hidden;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("hidden_dim"), std::string::npos)
          << "hidden_dim " << hidden << ": " << e.what();
    }
  }
  // One layer maps in_dim to out_dim directly and never reads hidden_dim.
  GnnConfig one = f.config(kind, 4);
  one.num_layers = 1;
  one.hidden_dim = 0;
  EXPECT_NO_THROW((void)QgtcModel::create(one, 1));
}

TEST(Model, GcnNonPositiveHiddenDimThrows) {
  expect_hidden_dim_rejected(ModelKind::kClusterGCN);
}

TEST(Model, GinNonPositiveHiddenDimThrows) {
  expect_hidden_dim_rejected(ModelKind::kBatchedGIN);
}

}  // namespace
}  // namespace qgtc::gnn
