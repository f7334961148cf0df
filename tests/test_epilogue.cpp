// Fused quantized epilogue tests: the requantize/activate/re-pack sequence
// executed inside the tile flush must be bit-identical to the unfused
// reference (int32 sweep + standalone requantization) across every backend,
// epoch mode, activation (identity, ReLU) and bit-width — and must actually
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

const Activation kActs[] = {Activation::kIdentity, Activation::kRelu};

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
  EXPECT_EQ(apply_epilogue(40, {Activation::kRelu, 2, -1}), 10);
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
  }
  if (spec.qmax >= 0) w = std::clamp<i64>(w, 0, spec.qmax);
  return static_cast<i32>(w);
}

// apply_epilogue_tile (the vectorized per-tile loop) equals apply_epilogue
// element by element, and both equal the i64 form, over the i32 extremes,
// small values around ReLU's knee, every rshift a calibration
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

/// Planes for the drain parity test: `bits` planes of 9 lines, `kDrainStride`
/// words apart, the drained region starting at word kDrainWord of line 0.
constexpr i64 kDrainStride = 5;
constexpr i64 kDrainWord = 2;

/// Element-wise reference of a panel drain: nb tiles (tile blk at
/// tiles[blk * 64]) requantized with apply_epilogue one value at a time and
/// set bit by bit. Row-major: tile blk holds output columns 8 blk .. +7 of
/// rows 0..7 and a line is a row; transposed: it holds output rows
/// 8 blk .. +7 of columns 0..7 and a line is a column. Only the rows x cols
/// region counts. Returns the values the clamp pulled down.
u64 reference_drain(const std::vector<u32>& tiles, i64 nb, i64 rows, i64 cols,
                    const EpilogueSpec& spec, bool transpose, int bits,
                    std::vector<u32>& planes) {
  const EpilogueSpec unclamped{spec.act, spec.rshift, -1};
  u64 saturated = 0;
  for (i64 blk = 0; blk < nb; ++blk) {
    for (i64 i = 0; i < kTileM; ++i) {
      for (i64 j = 0; j < kTileN; ++j) {
        const i64 r = transpose ? blk * kTileM + i : i;
        const i64 c = transpose ? j : blk * kTileN + j;
        if (r >= rows || c >= cols) continue;
        const auto v = static_cast<i32>(tiles[static_cast<std::size_t>(
            blk * kTileM * kTileN + i * kTileN + j)]);
        saturated += apply_epilogue(v, unclamped) > spec.qmax ? 1 : 0;
        const i32 w = apply_epilogue(v, spec);
        const i64 line = transpose ? c : r;
        const i64 pos = transpose ? r : c;
        for (int b = 0; b < bits; ++b) {
          planes[static_cast<std::size_t>((b * 9 + line) * kDrainStride + kDrainWord +
                                          pos / kWordBits)] |=
              static_cast<u32>((w >> b) & 1) << (pos % kWordBits);
        }
      }
    }
  }
  return saturated;
}

/// One panel drain orientation against the element-wise reference on zeroed
/// planes surrounded by sentinel words: flush_planes_panel and per-tile
/// flush_planes over panels of 1-8 tiles, 1-8 valid lines, full and ragged
/// valid extents, plane counts past one byte, both activations, shifts 0, 3
/// and 31, and inputs that are wrapped negatives or above qmax. Planes and
/// the saturated count must match, and no word outside the drained lines'
/// 64-bit line word may change. Row panels (`transpose` false, the
/// kRowMajorK drain): a line is a row and tile blk holds columns 8 blk .. +7.
/// Column bands (the kColMajorK drain): a line is a column and tile blk
/// holds rows 8 blk .. +7, so `extent` counts rows and `lines` columns.
void check_panel_drain(bool transpose, u64 seed) {
  Rng rng(seed);
  for (const int bits : {1, 2, 4, 7, 8, 16, 31}) {
    const i32 qmax = static_cast<i32>((u32{1} << bits) - 1);
    std::vector<u32> sentinel(static_cast<std::size_t>(bits * 9 * kDrainStride));
    for (u32& w : sentinel) w = static_cast<u32>(rng.next_u64()) | 1u;
    for (const Activation act : kActs) {
      for (const int rshift : {0, 3, 31}) {
        const EpilogueSpec spec{act, rshift, qmax};
        for (i64 nb = 1; nb <= tcsim::kPanelWidth; ++nb) {
          std::vector<u32> tiles(static_cast<std::size_t>(nb * kTileM * kTileN));
          for (u32& v : tiles) {
            // Wrapped negatives and values near or far above qmax << rshift.
            const u64 kind = rng.next_below(3);
            v = kind == 0 ? static_cast<u32>(rng.next_u64())
                : kind == 1
                    ? static_cast<u32>(rng.next_below(u64{1} << std::min(bits + rshift + 1, 31)))
                    : static_cast<u32>(-static_cast<i32>(rng.next_below(1000)));
          }
          for (i64 lines = 1; lines <= kTileM; ++lines) {
            for (const i64 extent : {nb * kTileN, nb * kTileN - 3, nb * kTileN - 7}) {
              if (extent <= 0) continue;
              const std::string tag =
                  std::to_string(bits) + " bits " + tcsim::activation_name(act) +
                  " rshift " + std::to_string(rshift) + " nb " + std::to_string(nb) +
                  " lines " + std::to_string(lines) + " extent " + std::to_string(extent);
              // The valid lines' line words start zero; every other word is
              // a sentinel.
              std::vector<u32> zeroed = sentinel;
              for (int b = 0; b < bits; ++b) {
                for (i64 l = 0; l < lines; ++l) {
                  for (i64 w = 0; w < 2; ++w) {
                    zeroed[static_cast<std::size_t>((b * 9 + l) * kDrainStride +
                                                    kDrainWord + w)] = 0;
                  }
                }
              }
              const auto planes_of = [&](std::vector<u32>& buf, i64 blk) {
                std::vector<u32*> p(static_cast<std::size_t>(bits));
                for (int b = 0; b < bits; ++b) {
                  p[static_cast<std::size_t>(b)] = buf.data() + b * 9 * kDrainStride +
                                                   kDrainWord + blk * kTileN / kWordBits;
                }
                return p;
              };
              const i64 rows = transpose ? extent : lines;
              const i64 cols = transpose ? lines : extent;
              std::vector<u32> want = zeroed;
              const u64 want_sat =
                  reference_drain(tiles, nb, rows, cols, spec, transpose, bits, want);
              std::vector<u32> per_tile = zeroed;
              u64 per_tile_sat = 0;
              for (i64 blk = 0; blk < nb; ++blk) {
                const i64 left = extent - blk * kTileN;
                if (left <= 0) continue;
                std::vector<u32*> p = planes_of(per_tile, blk);
                per_tile_sat += tcsim::flush_planes(
                    {p.data(), kDrainStride, static_cast<int>(blk * kTileN % kWordBits),
                     bits, lines, std::min<i64>(kTileN, left), transpose},
                    tiles.data() + blk * kTileM * kTileN, spec);
              }
              EXPECT_EQ(per_tile, want) << tag;
              EXPECT_EQ(per_tile_sat, want_sat) << tag;
              std::vector<u32> panel = zeroed;
              std::vector<u32*> p = planes_of(panel, 0);
              const u64 panel_sat = tcsim::flush_planes_panel(
                  {p.data(), kDrainStride, 0, bits, lines, extent, transpose},
                  tiles.data(), nb, spec);
              EXPECT_EQ(panel, per_tile) << tag;
              EXPECT_EQ(panel_sat, per_tile_sat) << tag;
            }
          }
        }
      }
    }
  }
}

// The kRowMajorK panel drain and per-tile flush_planes (row panels).
TEST(Epilogue, PanelDrainMatchesPerTileFlush) { check_panel_drain(false, 113); }

// The kColMajorK column-band drain and per-tile transposed flush_planes
// (column bands of 1-8 tiles with ragged last rows, 1-8 valid columns).
TEST(Epilogue, ColumnPanelDrainMatchesPerTileFlush) { check_panel_drain(true, 127); }

TEST(Epilogue, ActivationNames) {
  EXPECT_STREQ(tcsim::activation_name(Activation::kIdentity), "identity");
  EXPECT_STREQ(tcsim::activation_name(Activation::kRelu), "relu");
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
// to-bit flush clamps exactly the raw products above qmax, ragged edge
// tiles included.
TEST(Epilogue, SaturationCountsValuesAboveQmax) {
  Rng rng(109);
  const MatrixI32 a = random_codes(rng, 21, 140, 2);
  const MatrixI32 b = random_codes(rng, 140, 11, 2);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  const MatrixI32 raw = bitmm_to_int(pa, pb);
  for (const int out_bits : {1, 8}) {
    const i32 qmax = static_cast<i32>((u32{1} << out_bits) - 1);
    u64 above = 0;
    for (i64 i = 0; i < raw.size(); ++i) above += raw.data()[i] > qmax ? 1 : 0;
    ASSERT_GT(above, 0u);
    for (const auto kind : tcsim::all_backends()) {
      for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        tcsim::ExecutionContext ctx(kind);
        BmmOptions opt;
        opt.ctx = &ctx;
        (void)bitmm_fused_bit(pa, pb, out_bits, {}, opt, PadPolicy::kTile8,
                              layout);
        EXPECT_EQ(ctx.counters().saturated, above)
            << tcsim::backend_name(kind) << "/" << out_bits << " bits"
            << (layout == BitLayout::kRowMajorK ? "/row" : "/col");
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

  gnn::GnnConfig config(gnn::ModelKind kind, int bits) const {
    gnn::GnnConfig cfg;
    cfg.kind = kind;
    cfg.num_layers = 3;
    cfg.in_dim = 16;
    cfg.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 64;
    cfg.out_dim = 4;
    cfg.feat_bits = bits;
    cfg.weight_bits = bits;
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
      gnn::GnnConfig fused_cfg = f.config(mk, 4);
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

TEST(Epilogue, ModelParityAcrossBits) {
  const ModelFixture f;
  for (const int bits : {1, 2, 4}) {
    gnn::GnnConfig fused_cfg = f.config(gnn::ModelKind::kClusterGCN, bits);
    fused_cfg.fused_epilogue = true;
    gnn::GnnConfig unfused_cfg = fused_cfg;
    unfused_cfg.fused_epilogue = false;
    const auto kind = tcsim::default_backend();
    const ModelRun fused = run_model(f, fused_cfg, kind);
    const ModelRun unfused = run_model(f, unfused_cfg, kind);
    const std::string tag = std::to_string(bits) + " bits";
    EXPECT_EQ(fused.logits, unfused.logits) << tag;
    EXPECT_EQ(fused.stats.bmma_ops, unfused.stats.bmma_ops) << tag;
    EXPECT_EQ(fused.stats.tiles_jumped, unfused.stats.tiles_jumped) << tag;
  }
}

// The rewrite pass: every requantizing stage is planned fused, hidden
// updates with ReLU; final-layer stages stay identity (full-precision
// logits for softmax).
TEST(Epilogue, RewritePassPlansStages) {
  const ModelFixture f;
  gnn::GnnConfig cfg = f.config(gnn::ModelKind::kClusterGCN, 4);
  gnn::QgtcModel m = gnn::QgtcModel::create(cfg, 7);
  // GCN, 3 layers: agg+update fused on layers 0..n-2, agg only on the last.
  EXPECT_EQ(m.fused_stage_count(), 5);
  EXPECT_EQ(m.agg_plan(0).act, Activation::kIdentity);  // agg never activates
  EXPECT_EQ(m.upd_plan(0).act, Activation::kRelu);
  EXPECT_EQ(m.upd_plan(2).act, Activation::kIdentity);  // logits layer
  cfg.fused_epilogue = false;
  EXPECT_EQ(gnn::QgtcModel::create(cfg, 7).fused_stage_count(), 0);
}

// Per-layer bit-width selection: narrowed plans are exact on the
// calibration batch and never execute more tile work than the fixed-width
// config.
TEST(Epilogue, PerLayerBitsExactOnCalibrationBatch) {
  const ModelFixture f;
  gnn::GnnConfig on_cfg = f.config(gnn::ModelKind::kClusterGCN, 6);
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
