// Fused quantized epilogue tests: the requantize/activate/re-pack sequence
// executed inside the tile flush must be bit-identical to the unfused
// reference (int32 sweep + standalone requantization) across every backend,
// epoch mode, activation and bit-width — and must actually
// avoid the int32 intermediate (counter > 0 fused, == 0 unfused).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace qgtc {
namespace {

using tcsim::Activation;
using tcsim::apply_epilogue;
using tcsim::EpilogueSpec;

const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                            Activation::kRelu6, Activation::kHardswish};

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = (u64{1} << bits);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

TEST(Epilogue, ApplySemantics) {
  // Shift, then activate, then clamp — one definition shared by every path.
  EXPECT_EQ(apply_epilogue(40, {Activation::kIdentity, 2, -1}), 10);
  EXPECT_EQ(apply_epilogue(-8, {Activation::kIdentity, 2, -1}), -2);
  EXPECT_EQ(apply_epilogue(-8, {Activation::kRelu, 2, -1}), 0);
  EXPECT_EQ(apply_epilogue(40, {Activation::kRelu6, 2, -1}), 6);
  EXPECT_EQ(apply_epilogue(5, {Activation::kRelu6, 0, -1}), 5);
  // hardswish(x) = x * clamp(x+3, 0, 6) / 6, truncating division.
  EXPECT_EQ(apply_epilogue(-4, {Activation::kHardswish, 0, -1}), 0);
  EXPECT_EQ(apply_epilogue(-2, {Activation::kHardswish, 0, -1}), 0);  // -2*1/6
  EXPECT_EQ(apply_epilogue(-1, {Activation::kHardswish, 0, -1}), 0);  // -2/6
  EXPECT_EQ(apply_epilogue(1, {Activation::kHardswish, 0, -1}), 0);   // 4/6
  EXPECT_EQ(apply_epilogue(2, {Activation::kHardswish, 0, -1}), 1);   // 10/6
  EXPECT_EQ(apply_epilogue(9, {Activation::kHardswish, 0, -1}), 9);   // linear
  // Clamp to [0, qmax] last.
  EXPECT_EQ(apply_epilogue(300, {Activation::kIdentity, 3, 15}), 15);
  EXPECT_EQ(apply_epilogue(40, {Activation::kIdentity, 2, 15}), 10);
  // ReLU commutes with the arithmetic shift (the historical ordering).
  for (i32 v : {-1000, -65, -64, -1, 0, 1, 63, 64, 1000}) {
    const i32 shifted_then_act = apply_epilogue(v, {Activation::kRelu, 6, -1});
    const i32 act_then_shifted =
        apply_epilogue(std::max(v, 0), {Activation::kIdentity, 6, -1});
    EXPECT_EQ(shifted_then_act, act_then_shifted) << v;
  }
}

/// The textbook i64 epilogue the i32 definition replaced.
i32 reference_epilogue_i64(i32 v, const EpilogueSpec& spec) {
  i64 w = static_cast<i64>(v) >> spec.rshift;
  switch (spec.act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      w = std::max<i64>(w, 0);
      break;
    case Activation::kRelu6:
      w = std::clamp<i64>(w, 0, 6);
      break;
    case Activation::kHardswish:
      w = w * std::clamp<i64>(w + 3, 0, 6) / 6;
      break;
  }
  if (spec.qmax >= 0) w = std::clamp<i64>(w, 0, spec.qmax);
  return static_cast<i32>(w);
}

// apply_epilogue_tile (the vectorized per-tile loop) equals apply_epilogue
// element by element, and both equal the i64 form, over the i32 extremes,
// small values around every activation's knees, every rshift a calibration
// can produce and qmax from "no clamp" to INT32_MAX. The returned count is
// the number of values the clamp pulled down to qmax.
TEST(Epilogue, TileMatchesScalar) {
  const i32 inputs[] = {INT32_MIN, -7, -6, -5, -4, -3, -2, -1, 0, 1,
                        2,         3,  4,  5,  6,  7,  i32{1} << 29, INT32_MAX};
  constexpr int kN = static_cast<int>(sizeof(inputs) / sizeof(inputs[0]));
  for (const Activation act : kActs) {
    for (const int rshift : {0, 1, 5, 30, 31}) {
      for (const i32 qmax : {-1, 0, 1, 6, 255, INT32_MAX}) {
        const EpilogueSpec spec{act, rshift, qmax};
        const EpilogueSpec unclamped{act, rshift, -1};
        i32 tile[kTileM * kTileN];
        for (int k = 0; k < kTileM * kTileN; ++k) tile[k] = inputs[k % kN];
        u64 expect_saturated = 0;
        for (int k = 0; k < kTileM * kTileN; ++k) {
          if (qmax >= 0 && apply_epilogue(tile[k], unclamped) > qmax) {
            ++expect_saturated;
          }
        }
        i32 out[kTileM * kTileN];
        std::copy(std::begin(tile), std::end(tile), std::begin(out));
        const u64 saturated = tcsim::apply_epilogue_tile(out, spec);
        const std::string tag = std::string(tcsim::activation_name(act)) +
                                " rshift " + std::to_string(rshift) +
                                " qmax " + std::to_string(qmax);
        EXPECT_EQ(saturated, expect_saturated) << tag;
        for (int k = 0; k < kTileM * kTileN; ++k) {
          EXPECT_EQ(out[k], apply_epilogue(tile[k], spec))
              << tag << " v " << tile[k];
          EXPECT_EQ(out[k], reference_epilogue_i64(tile[k], spec))
              << tag << " v " << tile[k];
        }
      }
    }
  }
}

/// The per-element scatter the mask-based scatter_planes replaced.
void reference_scatter(const tcsim::PlaneSink& s, const i32* q) {
  for (i64 l = 0; l < s.lines; ++l) {
    for (int b = 0; b < s.out_bits; ++b) {
      u32 lane = 0;
      for (i64 k = 0; k < s.lanes; ++k) {
        const i32 v = s.transpose ? q[k * 8 + l] : q[l * 8 + k];
        lane |= static_cast<u32>((v >> b) & 1) << k;
      }
      if (lane != 0) s.planes[b][l * s.line_stride] |= lane << s.shift;
    }
  }
}

// scatter_planes vs the per-element reference on random tiles over every
// valid region, bit offset, plane count and orientation. The planes start
// with random bits, so the check also covers OR semantics and that nothing
// outside the region is written.
TEST(Epilogue, ScatterMatchesPerElementReference) {
  Rng rng(107);
  constexpr i64 kStride = 3;  // words between lines
  for (const int out_bits : {1, 8, 31}) {
    for (const bool transpose : {false, true}) {
      for (const int shift : {0, 8, 16, 24}) {
        for (i64 lines = 1; lines <= 8; ++lines) {
          for (i64 lanes = 1; lanes <= 8; ++lanes) {
            i32 q[kTileM * kTileN];
            for (i32& v : q) {
              v = static_cast<i32>(rng.next_below(u64{1} << out_bits));
            }
            std::vector<u32> got(static_cast<std::size_t>(out_bits * 8 * kStride));
            for (u32& w : got) w = static_cast<u32>(rng.next_u64());
            std::vector<u32> want = got;
            u32* got_planes[32];
            u32* want_planes[32];
            for (int b = 0; b < out_bits; ++b) {
              got_planes[b] = got.data() + b * 8 * kStride;
              want_planes[b] = want.data() + b * 8 * kStride;
            }
            tcsim::scatter_planes(
                {got_planes, kStride, shift, out_bits, lines, lanes, transpose},
                q);
            reference_scatter(
                {want_planes, kStride, shift, out_bits, lines, lanes, transpose},
                q);
            ASSERT_EQ(got, want)
                << "bits " << out_bits << " transpose " << transpose
                << " shift " << shift << " lines " << lines << " lanes "
                << lanes;
          }
        }
      }
    }
  }
}

TEST(Epilogue, ActivationNames) {
  for (const Activation a : kActs) {
    EXPECT_EQ(tcsim::parse_activation(tcsim::activation_name(a)), a);
  }
  EXPECT_THROW((void)tcsim::parse_activation("gelu"), std::invalid_argument);
}

// flush_planes (the plane-writer epilogue) vs the manual reference — an
// int32 MM followed by elementwise apply_epilogue and a standalone
// decompose — for every backend, both output layouts (row-major exercises
// the straight scatter, col-major the transposed one) and ragged edge
// tiles, at 1, 4 and 8 output bits. Also checks the int32-bytes-avoided
// accounting.
TEST(Epilogue, FusedBitMatchesManualAcrossBackends) {
  Rng rng(101);
  const int s = 3, t = 2;
  const MatrixI32 a = random_codes(rng, 21, 140, s);  // ragged edge tiles
  const MatrixI32 b = random_codes(rng, 140, 11, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
  const MatrixI32 raw = bitmm_to_int(pa, pb);
  i32 mx = 0;
  for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);

  for (const int out_bits : {1, 4, 8}) {
    for (const auto kind : tcsim::all_backends()) {
      for (const Activation act : kActs) {
        FusedEpilogue epi;
        epi.act = act;
        epi.rshift = calibrate_rshift(mx, out_bits);
        const EpilogueSpec spec{act, epi.rshift,
                                static_cast<i32>((u32{1} << out_bits) - 1)};
        MatrixI32 expect = raw;
        for (i64 i = 0; i < expect.size(); ++i) {
          expect.data()[i] = apply_epilogue(expect.data()[i], spec);
        }
        for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
          tcsim::ExecutionContext ctx(kind);
          BmmOptions opt;
          opt.ctx = &ctx;
          const StackedBitTensor out = bitmm_fused_bit(
              pa, pb, out_bits, epi, opt, PadPolicy::kTile8, layout);
          EXPECT_EQ(out.compose(), expect)
              << tcsim::backend_name(kind) << "/" << tcsim::activation_name(act)
              << "/" << out_bits << " bits";
          EXPECT_EQ(ctx.counters().int32_bytes_avoided,
                    static_cast<u64>(raw.rows() * raw.cols() * sizeof(i32)));
        }
      }
    }
  }
}

// The saturation counter: with rshift = 0 and no activation, the fused
// to-bit flush clamps exactly the raw products above qmax. Ragged edge
// tiles under the XOR combine (whose padding rows hold nonzero values)
// check that padding never counts; the BN case (identity fold) checks that
// the staged path counts the same.
TEST(Epilogue, SaturationCountsValuesAboveQmax) {
  Rng rng(109);
  const MatrixI32 a = random_codes(rng, 21, 140, 2);
  const MatrixI32 b = random_codes(rng, 140, 11, 2);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  for (const auto op : {tcsim::BmmaOp::kAnd, tcsim::BmmaOp::kXor}) {
    BmmOptions raw_opt;
    raw_opt.op = op;
    const MatrixI32 raw = bitmm_to_int(pa, pb, raw_opt);
    for (const int out_bits : {1, 8}) {
      const i32 qmax = static_cast<i32>((u32{1} << out_bits) - 1);
      u64 above = 0;
      for (i64 i = 0; i < raw.size(); ++i) above += raw.data()[i] > qmax ? 1 : 0;
      ASSERT_GT(above, 0u);
      for (const auto kind : tcsim::all_backends()) {
        for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
          for (const bool bn : {false, true}) {
            FusedEpilogue epi;
            if (bn) {
              epi.use_bn = true;
              epi.bn_scale.assign(static_cast<std::size_t>(raw.cols()), 1.0f);
              epi.bn_bias.assign(static_cast<std::size_t>(raw.cols()), 0.0f);
            }
            tcsim::ExecutionContext ctx(kind);
            BmmOptions opt = raw_opt;
            opt.ctx = &ctx;
            (void)bitmm_fused_bit(pa, pb, out_bits, epi, opt,
                                  PadPolicy::kTile8, layout);
            EXPECT_EQ(ctx.counters().saturated, above)
                << tcsim::backend_name(kind) << "/" << out_bits << " bits"
                << (layout == BitLayout::kRowMajorK ? "/row" : "/col")
                << (op == tcsim::BmmaOp::kXor ? "/xor" : "/and")
                << (bn ? "/bn" : "");
          }
        }
      }
    }
  }
}

// flush_epilogue (int32 output, activation only) vs the manual reference.
TEST(Epilogue, FusedIntActivationAcrossBackends) {
  Rng rng(103);
  const MatrixI32 a = random_codes(rng, 13, 130, 2);
  const MatrixI32 b = random_codes(rng, 130, 10, 1);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 1, BitLayout::kColMajorK);
  const MatrixI32 raw = bitmm_to_int(pa, pb);
  for (const auto kind : tcsim::all_backends()) {
    for (const Activation act : kActs) {
      tcsim::ExecutionContext ctx(kind);
      BmmOptions opt;
      opt.ctx = &ctx;
      FusedEpilogue epi;
      epi.act = act;
      MatrixI32 expect = raw;
      for (i64 i = 0; i < expect.size(); ++i) {
        expect.data()[i] =
            apply_epilogue(expect.data()[i], EpilogueSpec{act, 0, -1});
      }
      EXPECT_EQ(bitmm_fused_int(pa, pb, epi, opt), expect)
          << tcsim::backend_name(kind) << "/" << tcsim::activation_name(act);
      // The int32 output path materialises its result — nothing avoided.
      EXPECT_EQ(ctx.counters().int32_bytes_avoided, 0u);
    }
  }
}

struct ModelFixture {
  Dataset ds;
  TileSparseBitMatrix adj;
  MatrixF feats;

  explicit ModelFixture(i64 nodes = 300) {
    DatasetSpec spec{"t", nodes, nodes * 6, 16, 4, 4, 9};
    ds = generate_dataset(spec);
    PartitionResult parts = partition_graph(ds.graph, 4);
    auto batches = make_batches(parts, 4);  // single batch, whole graph
    adj = build_batch_adjacency_tiles(ds.graph, batches[0]);
    feats = gather_rows(ds.features, batches[0].nodes);
  }

  gnn::GnnConfig config(gnn::ModelKind kind, int bits, Activation act) const {
    gnn::GnnConfig cfg;
    cfg.kind = kind;
    cfg.num_layers = 3;
    cfg.in_dim = 16;
    cfg.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 64;
    cfg.out_dim = 4;
    cfg.feat_bits = bits;
    cfg.weight_bits = bits;
    cfg.activation = act;
    return cfg;
  }
};

struct ModelRun {
  MatrixI32 logits;
  gnn::ForwardStats stats;
};

ModelRun run_model(const ModelFixture& f, const gnn::GnnConfig& cfg,
                   tcsim::BackendKind kind) {
  gnn::QgtcModel m = gnn::QgtcModel::create(cfg, 13);
  ModelRun r;
  tcsim::ExecutionContext ctx(kind);
  m.calibrate(f.adj, f.feats);
  r.logits = m.forward_quantized(f.adj, f.feats, &r.stats, &ctx);
  return r;
}

// The tentpole parity claim: fused and unfused model passes produce
// bit-identical logits AND the identical tile schedule (bmma_ops,
// tiles_jumped) on every backend, while only the fused pass skips int32
// intermediates. (frag_loads are deliberately not compared:
// the fused col-major plane writer parallelises over output columns, which
// re-loads A fragments in a different — but counted — pattern.)
TEST(Epilogue, ModelParityAcrossBackends) {
  const ModelFixture f;
  for (const auto kind : tcsim::all_backends()) {
    for (const auto mk :
         {gnn::ModelKind::kClusterGCN, gnn::ModelKind::kBatchedGIN}) {
      gnn::GnnConfig fused_cfg = f.config(mk, 4, Activation::kRelu);
      fused_cfg.fused_epilogue = true;
      gnn::GnnConfig unfused_cfg = fused_cfg;
      unfused_cfg.fused_epilogue = false;
      const ModelRun fused = run_model(f, fused_cfg, kind);
      const ModelRun unfused = run_model(f, unfused_cfg, kind);
      const std::string tag = std::string(tcsim::backend_name(kind)) + "/" +
                              gnn::model_name(mk);
      EXPECT_EQ(fused.logits, unfused.logits) << tag;
      EXPECT_EQ(fused.stats.bmma_ops, unfused.stats.bmma_ops) << tag;
      EXPECT_EQ(fused.stats.tiles_jumped, unfused.stats.tiles_jumped) << tag;
      EXPECT_EQ(fused.stats.saturated, unfused.stats.saturated) << tag;
      EXPECT_GT(fused.stats.int32_bytes_avoided, 0) << tag;
      EXPECT_EQ(unfused.stats.int32_bytes_avoided, 0) << tag;
    }
  }
}

TEST(Epilogue, ModelParityAcrossActivationsAndBits) {
  const ModelFixture f;
  for (const Activation act :
       {Activation::kRelu, Activation::kRelu6, Activation::kHardswish}) {
    for (const int bits : {1, 2, 4}) {
      gnn::GnnConfig fused_cfg =
          f.config(gnn::ModelKind::kClusterGCN, bits, act);
      fused_cfg.fused_epilogue = true;
      gnn::GnnConfig unfused_cfg = fused_cfg;
      unfused_cfg.fused_epilogue = false;
      const auto kind = tcsim::default_backend();
      const ModelRun fused = run_model(f, fused_cfg, kind);
      const ModelRun unfused = run_model(f, unfused_cfg, kind);
      const std::string tag =
          std::string(tcsim::activation_name(act)) + "/" + std::to_string(bits);
      EXPECT_EQ(fused.logits, unfused.logits) << tag;
      EXPECT_EQ(fused.stats.bmma_ops, unfused.stats.bmma_ops) << tag;
      EXPECT_EQ(fused.stats.tiles_jumped, unfused.stats.tiles_jumped) << tag;
    }
  }
}

// The rewrite pass: every requantizing stage is planned fused with the
// config's activation; final-layer stages stay identity (full-precision
// logits for softmax).
TEST(Epilogue, RewritePassPlansStages) {
  const ModelFixture f;
  gnn::GnnConfig cfg = f.config(gnn::ModelKind::kClusterGCN, 4,
                                Activation::kRelu6);
  gnn::QgtcModel m = gnn::QgtcModel::create(cfg, 7);
  // GCN, 3 layers: agg+update fused on layers 0..n-2, agg only on the last.
  EXPECT_EQ(m.fused_stage_count(), 5);
  EXPECT_EQ(m.agg_plan(0).act, Activation::kIdentity);  // agg never activates
  EXPECT_EQ(m.upd_plan(0).act, Activation::kRelu6);
  EXPECT_EQ(m.upd_plan(2).act, Activation::kIdentity);  // logits layer
  cfg.fused_epilogue = false;
  EXPECT_EQ(gnn::QgtcModel::create(cfg, 7).fused_stage_count(), 0);
}

// Per-layer bit-width selection: narrowed plans are exact on the
// calibration batch and never execute more tile work than the fixed-width
// config.
TEST(Epilogue, PerLayerBitsExactOnCalibrationBatch) {
  const ModelFixture f;
  gnn::GnnConfig on_cfg = f.config(gnn::ModelKind::kClusterGCN, 6,
                                   Activation::kRelu);
  on_cfg.per_layer_bits = true;
  gnn::GnnConfig off_cfg = on_cfg;
  off_cfg.per_layer_bits = false;
  const auto kind = tcsim::default_backend();
  const ModelRun on = run_model(f, on_cfg, kind);
  const ModelRun off = run_model(f, off_cfg, kind);
  EXPECT_EQ(on.logits, off.logits);
  EXPECT_LE(on.stats.bmma_ops, off.stats.bmma_ops);
}

Dataset engine_dataset() {
  DatasetSpec spec{"epi-engine", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

core::EngineConfig engine_config(gnn::ModelKind kind, bool fused,
                                 bool streaming) {
  core::EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 32;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.model.fused_epilogue = fused;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  if (streaming) cfg.mode.epoch = core::RunMode::Epoch::kStreaming;
  return cfg;
}

// Engine-level parity: fused vs unfused across precomputed and streaming
// epoch modes — identical logits and tile schedule everywhere; the fusion
// stats report stages and avoided bytes only when fusion is on.
TEST(Epilogue, EngineParityAcrossEpochModes) {
  const Dataset ds = engine_dataset();
  for (const auto mk :
       {gnn::ModelKind::kClusterGCN, gnn::ModelKind::kBatchedGIN}) {
    std::vector<MatrixI32> ref_logits;
    i64 ref_bmma = -1, ref_jumped = -1, ref_saturated = -1;
    for (const bool streaming : {false, true}) {
      for (const bool fused : {true, false}) {
        core::QgtcEngine engine(ds, engine_config(mk, fused, streaming));
        std::vector<MatrixI32> logits;
        const auto stats = engine.run_quantized(1, &logits);
        const std::string tag = std::string(gnn::model_name(mk)) +
                                (streaming ? "/streaming" : "/precomputed") +
                                (fused ? "/fused" : "/unfused");
        if (ref_bmma < 0) {
          ref_logits = std::move(logits);
          ref_bmma = stats.bmma_ops;
          ref_jumped = stats.tiles_jumped;
          ref_saturated = stats.saturated;
        } else {
          EXPECT_EQ(logits, ref_logits) << tag;
          EXPECT_EQ(stats.bmma_ops, ref_bmma) << tag;
          EXPECT_EQ(stats.tiles_jumped, ref_jumped) << tag;
          // Fused and unfused count the same clamps in every epoch mode.
          EXPECT_EQ(stats.saturated, ref_saturated) << tag;
        }
        if (fused) {
          EXPECT_GT(stats.epilogue_fused_layers, 0) << tag;
          EXPECT_GT(stats.int32_bytes_avoided, 0) << tag;
        } else {
          EXPECT_EQ(stats.epilogue_fused_layers, 0) << tag;
          EXPECT_EQ(stats.int32_bytes_avoided, 0) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qgtc
