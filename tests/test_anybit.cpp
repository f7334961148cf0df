// Any-bitwidth composition tests — the heart of the paper's §3 claim: an
// s-bit x t-bit product composed from 1-bit BMMs equals the exact integer
// product of the quantized codes, for every (s, t) pair; fused/unfused and
// cross-bit/cross-tile variants are bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc {
namespace {

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = (u64{1} << bits);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

TEST(AnyBit, CalibrateRshift) {
  EXPECT_EQ(calibrate_rshift(0, 4), 0);
  EXPECT_EQ(calibrate_rshift(15, 4), 0);   // fits exactly
  EXPECT_EQ(calibrate_rshift(16, 4), 1);   // needs 5 bits
  EXPECT_EQ(calibrate_rshift(255, 4), 4);  // 8 bits -> shift 4
  EXPECT_EQ(calibrate_rshift(255, 8), 0);
}

TEST(AnyBit, AccumulatorBoundCheck) {
  EXPECT_NO_THROW(check_accumulator_bounds(128, 8, 8));
  EXPECT_THROW(check_accumulator_bounds(1 << 20, 8, 8), std::invalid_argument);
}

TEST(AnyBit, PaperEq5Example) {
  // The 3-bit x 2-bit scalar example of Eq. 3-5, lifted to 1x1 matrices.
  for (i32 av = 0; av < 8; ++av) {
    for (i32 bv = 0; bv < 4; ++bv) {
      MatrixI32 a(1, 1, av), b(1, 1, bv);
      const auto pa = StackedBitTensor::decompose(a, 3, BitLayout::kRowMajorK);
      const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
      const MatrixI32 c = bitmm_to_int(pa, pb);
      EXPECT_EQ(c(0, 0), av * bv);
    }
  }
}

TEST(AnyBit, FusedIntMatchesUnfused) {
  Rng rng(42);
  const MatrixI32 a = random_codes(rng, 20, 150, 3);
  const MatrixI32 b = random_codes(rng, 150, 12, 5);
  const auto pa = StackedBitTensor::decompose(a, 3, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 5, BitLayout::kColMajorK);
  EXPECT_EQ(bitmm_fused_int(pa, pb), bitmm_to_int(pa, pb));
}

TEST(AnyBit, FusedBitMatchesManualRequant) {
  Rng rng(44);
  const int s = 3, t = 2, out_bits = 4;
  const MatrixI32 a = random_codes(rng, 17, 140, s);
  const MatrixI32 b = random_codes(rng, 140, 9, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);

  const MatrixI32 raw = bitmm_to_int(pa, pb);
  i32 mx = 0;
  for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);
  FusedEpilogue epi;
  epi.rshift = calibrate_rshift(mx, out_bits);

  const StackedBitTensor out =
      bitmm_fused_bit(pa, pb, out_bits, epi, {}, PadPolicy::kTile8);
  const MatrixI32 got = out.compose();
  const i32 qmax = (1 << out_bits) - 1;
  for (i64 i = 0; i < raw.rows(); ++i) {
    for (i64 j = 0; j < raw.cols(); ++j) {
      EXPECT_EQ(got(i, j), std::min(raw(i, j) >> epi.rshift, qmax));
    }
  }
}

TEST(AnyBit, FusedBitColMajorOutput) {
  // GIN needs the update result laid out as the next B operand; values must
  // be identical regardless of the output layout.
  Rng rng(45);
  const MatrixI32 a = random_codes(rng, 11, 135, 2);
  const MatrixI32 b = random_codes(rng, 135, 7, 2);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  FusedEpilogue epi;
  epi.rshift = 6;
  const auto row_out = bitmm_fused_bit(pa, pb, 4, epi, {}, PadPolicy::kTile8,
                                       BitLayout::kRowMajorK);
  const auto col_out = bitmm_fused_bit(pa, pb, 4, epi, {}, PadPolicy::kTile8,
                                       BitLayout::kColMajorK);
  EXPECT_EQ(row_out.compose(), col_out.compose());
  EXPECT_EQ(col_out.plane(0).layout(), BitLayout::kColMajorK);
}

TEST(AnyBit, AggregationModesIdentical) {
  Rng rng(46);
  // Binary adjacency with zero blocks, multi-bit features.
  MatrixI32 adj(40, 40, 0);
  for (i64 i = 0; i < 40; ++i) {
    for (i64 j = 0; j < 40; ++j) {
      if ((i / 8 + j / 8) % 2 == 0) adj(i, j) = rng.next_bool(0.3f) ? 1 : 0;
    }
  }
  const MatrixI32 x = random_codes(rng, 40, 24, 4);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 4, BitLayout::kColMajorK);

  BmmOptions jump;
  jump.zero_tile_jump = true;
  const MatrixI32 cross_bit = aggregate_1bit(pa, px, ReuseMode::kCrossBit, jump);
  const MatrixI32 cross_tile = aggregate_1bit(pa, px, ReuseMode::kCrossTile, jump);
  EXPECT_EQ(cross_bit, cross_tile);
  EXPECT_EQ(cross_bit, matmul_reference(adj, x));
}

TEST(AnyBit, CrossTileReusesFragments) {
  // The §4.4 claim: cross-tile reduction loads each non-zero A tile O(1)
  // times vs O(bits) for cross-bit.
  Rng rng(47);
  MatrixI32 adj(64, 256, 1);  // all-ones => all tiles non-zero
  const MatrixI32 x = random_codes(rng, 256, 64, 8);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 8, BitLayout::kColMajorK);

  const auto& global = tcsim::ExecutionContext::default_context();
  const u64 loads0 = global.counters().frag_loads_a;
  (void)aggregate_1bit(pa, px, ReuseMode::kCrossBit);
  const u64 loads1 = global.counters().frag_loads_a;
  (void)aggregate_1bit(pa, px, ReuseMode::kCrossTile);
  const u64 loads_cross_bit = loads1 - loads0;
  const u64 loads_cross_tile = global.counters().frag_loads_a - loads1;

  EXPECT_EQ(loads_cross_bit, 8 * loads_cross_tile);
}

TEST(AnyBit, AggregateFusedBitMatchesManual) {
  Rng rng(48);
  MatrixI32 adj(24, 24, 0);
  for (i64 i = 0; i < adj.size(); ++i) adj.data()[i] = rng.next_bool(0.4f) ? 1 : 0;
  const MatrixI32 x = random_codes(rng, 24, 16, 3);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 3, BitLayout::kColMajorK);

  const MatrixI32 raw = matmul_reference(adj, x);
  i32 mx = 0;
  for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);
  FusedEpilogue epi;
  epi.rshift = calibrate_rshift(mx, 3);
  const auto out = aggregate_fused_bit(pa, px, 3, epi);
  const MatrixI32 got = out.compose();
  for (i64 i = 0; i < raw.rows(); ++i) {
    for (i64 j = 0; j < raw.cols(); ++j) {
      EXPECT_EQ(got(i, j), std::min(raw(i, j) >> epi.rshift, 7));
    }
  }
}

TEST(AnyBit, DimensionMismatchThrows) {
  MatrixI32 a(4, 100, 1), b(90, 4, 1);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 2, BitLayout::kColMajorK);
  EXPECT_THROW(bitmm_to_int(pa, pb), std::invalid_argument);
}

TEST(AnyBit, OverflowGuardAndOptOut) {
  MatrixI32 a(1, 1 << 20, 255), b(1 << 20, 1, 255);
  const auto pa = StackedBitTensor::decompose(a, 8, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 8, BitLayout::kColMajorK);
  EXPECT_THROW(bitmm_to_int(pa, pb), std::invalid_argument);
  BmmOptions opt;
  opt.allow_overflow = true;
  EXPECT_NO_THROW(bitmm_to_int(pa, pb, opt));
}

TEST(AnyBit, FusedMatchesAcrossKBoundary) {
  // K <= 64 AND products take the AVX-512 half-K panel; K > 64 the full one.
  // Every backend, both fused outputs and both plane layouts must equal the
  // plain integer product on either side of the boundary, saturated count
  // included. The shapes span a full 8-tile panel plus a ragged edge.
  const i64 m = 21, n = 70;
  const int s = 8, t = 8, out_bits = 4;
  const i32 qmax = (1 << out_bits) - 1;
  for (const i64 k : {1, 29, 50, 63, 64, 65, 128}) {
    Rng rng(static_cast<u64>(900 + k));
    const MatrixI32 a = random_codes(rng, m, k, s);
    const MatrixI32 b = random_codes(rng, k, n, t);
    const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
    const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
    const MatrixI32 expect = matmul_reference(a, b);
    i32 mx = 0;
    for (i64 i = 0; i < expect.size(); ++i) mx = std::max(mx, expect.data()[i]);
    // One bit short of the calibrated shift, so the clamp fires.
    FusedEpilogue epi;
    epi.rshift = std::max(calibrate_rshift(mx, out_bits) - 1, 0);
    MatrixI32 requant(m, n);
    u64 saturated = 0;
    for (i64 i = 0; i < expect.size(); ++i) {
      const i32 w = expect.data()[i] >> epi.rshift;
      saturated += w > qmax ? 1 : 0;
      requant.data()[i] = std::min(w, qmax);
    }
    ASSERT_GT(saturated, 0u) << "K=" << k;
    for (const auto kind : tcsim::all_backends()) {
      const std::string where =
          std::string(tcsim::backend_name(kind)) + " K=" + std::to_string(k);
      BmmOptions opt;
      const tcsim::ExecutionContext ctx(kind);
      opt.ctx = &ctx;
      EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), expect) << where;
      for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        const tcsim::ExecutionContext bit_ctx(kind);
        opt.ctx = &bit_ctx;
        const auto out = bitmm_fused_bit(pa, pb, out_bits, epi, opt,
                                         PadPolicy::kTile8, layout);
        const char* side = layout == BitLayout::kRowMajorK ? " row" : " col";
        EXPECT_EQ(out.compose(), requant) << where << side;
        EXPECT_EQ(bit_ctx.counters().saturated, saturated) << where << side;
      }
    }
  }
}

/// The packed words of every plane, padding included.
std::vector<std::vector<u32>> plane_words(const StackedBitTensor& t) {
  std::vector<std::vector<u32>> w;
  for (int b = 0; b < t.bits(); ++b) {
    const BitMatrix& p = t.plane(b);
    w.emplace_back(p.data(), p.data() + p.bytes() / static_cast<i64>(sizeof(u32)));
  }
  return w;
}

TEST(AnyBit, FusedBitRaggedPanels) {
  // 100 output columns are 13 column tiles: one full 8-tile panel and one
  // of 5 whose last 64-bit line word is part valid; 21 rows end in a ragged
  // row block. The fused planes must equal the unfused int32 product
  // followed by apply_epilogue and decompose word for word, padding
  // included, with the same saturated count, on every backend and layout.
  const i64 m = 21, k = 140, n = 100;
  Rng rng(911);
  const MatrixI32 a = random_codes(rng, m, k, 3);
  const MatrixI32 x = random_codes(rng, k, n, 3);
  MatrixI32 adj(m, k);
  for (i64 i = 0; i < adj.size(); ++i) adj.data()[i] = rng.next_bool(0.6f) ? 1 : 0;
  const auto pa = StackedBitTensor::decompose(a, 3, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 3, BitLayout::kColMajorK);
  const BitMatrix p_adj = pack_nonzero(adj, BitLayout::kRowMajorK);
  const TileSparseBitMatrix sparse_adj = TileSparseBitMatrix::from_bit_matrix(p_adj);

  for (const bool aggregate : {false, true}) {
    const MatrixI32 raw = aggregate ? matmul_reference(adj, x) : matmul_reference(a, x);
    i32 mx = 0;
    for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);
    for (const int out_bits : {1, 4, 8}) {
      // One bit short of the calibrated shift, so the clamp fires.
      FusedEpilogue epi;
      epi.act = tcsim::Activation::kRelu;
      epi.rshift = std::max(calibrate_rshift(mx, out_bits) - 1, 0);
      const tcsim::EpilogueSpec spec{epi.act, epi.rshift,
                                     static_cast<i32>((u32{1} << out_bits) - 1)};
      const tcsim::EpilogueSpec unclamped{epi.act, epi.rshift, -1};
      MatrixI32 requant(m, n);
      u64 saturated = 0;
      for (i64 i = 0; i < raw.size(); ++i) {
        requant.data()[i] = tcsim::apply_epilogue(raw.data()[i], spec);
        saturated += tcsim::apply_epilogue(raw.data()[i], unclamped) > spec.qmax;
      }
      ASSERT_GT(saturated, 0u) << out_bits;
      for (const auto kind : tcsim::all_backends()) {
        for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
          if (aggregate && layout == BitLayout::kColMajorK) continue;
          const std::string where =
              std::string(tcsim::backend_name(kind)) + (aggregate ? " aggregate" : " bitmm") +
              (layout == BitLayout::kRowMajorK ? " row " : " col ") +
              std::to_string(out_bits) + " bits";
          const auto expect = plane_words(
              StackedBitTensor::decompose(requant, out_bits, layout, PadPolicy::kTile8));
          for (const bool sparse : {false, true}) {
            if (sparse && !aggregate) continue;
            const tcsim::ExecutionContext ctx(kind);
            BmmOptions opt;
            opt.ctx = &ctx;
            const StackedBitTensor out =
                !aggregate ? bitmm_fused_bit(pa, px, out_bits, epi, opt,
                                             PadPolicy::kTile8, layout)
                : sparse   ? aggregate_fused_bit(sparse_adj, px, out_bits, epi, opt,
                                                 PadPolicy::kTile8)
                           : aggregate_fused_bit(p_adj, px, out_bits, epi, opt,
                                                 PadPolicy::kTile8);
            EXPECT_EQ(plane_words(out), expect) << where << (sparse ? " sparse" : "");
            EXPECT_EQ(ctx.counters().saturated, saturated)
                << where << (sparse ? " sparse" : "");
          }
        }
      }
    }
  }
}

TEST(AnyBit, FusedBitColumnBands) {
  // 150 output rows are 19 row blocks: column bands of 8, 8 and 3 tiles, the
  // last one ragged (rows 144..149). 21 columns end in a ragged column tile.
  // Row blocks 2, 9 and 18 of A are all zero, so the update-side zero-tile
  // flag test jumps them. The kColMajorK planes must equal the int32 product
  // followed by apply_epilogue and decompose word for word, padding
  // included, with the same saturated count, on every backend.
  const i64 m = 150, k = 300, n = 21;
  const int s = 3, t = 2;
  Rng rng(937);
  MatrixI32 a = random_codes(rng, m, k, s);
  for (const i64 zero_block : {2, 9, 18}) {
    for (i64 r = zero_block * kTileM; r < std::min(m, (zero_block + 1) * kTileM); ++r) {
      for (i64 c = 0; c < k; ++c) a(r, c) = 0;
    }
  }
  const MatrixI32 x = random_codes(rng, k, n, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, t, BitLayout::kColMajorK);
  const MatrixI32 raw = matmul_reference(a, x);
  i32 mx = 0;
  for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);
  for (const int out_bits : {1, 4, 8}) {
    FusedEpilogue epi;
    epi.act = tcsim::Activation::kRelu;
    epi.rshift = std::max(calibrate_rshift(mx, out_bits) - 1, 0);
    const tcsim::EpilogueSpec spec{epi.act, epi.rshift,
                                   static_cast<i32>((u32{1} << out_bits) - 1)};
    const tcsim::EpilogueSpec unclamped{epi.act, epi.rshift, -1};
    MatrixI32 requant(m, n);
    u64 saturated = 0;
    for (i64 i = 0; i < raw.size(); ++i) {
      requant.data()[i] = tcsim::apply_epilogue(raw.data()[i], spec);
      saturated += tcsim::apply_epilogue(raw.data()[i], unclamped) > spec.qmax;
    }
    ASSERT_GT(saturated, 0u) << out_bits;
    const auto expect = plane_words(StackedBitTensor::decompose(
        requant, out_bits, BitLayout::kColMajorK, PadPolicy::kTile8));
    for (const auto kind : tcsim::all_backends()) {
      const std::string where =
          std::string(tcsim::backend_name(kind)) + " " + std::to_string(out_bits) + " bits";
      BmmOptions opt;
      opt.zero_tile_jump = true;
      const tcsim::ExecutionContext int_ctx(kind);
      opt.ctx = &int_ctx;
      EXPECT_EQ(bitmm_to_int(pa, px, opt), raw) << where;
      const tcsim::ExecutionContext ctx(kind);
      opt.ctx = &ctx;
      const StackedBitTensor out =
          bitmm_fused_bit(pa, px, out_bits, epi, opt, PadPolicy::kTile8,
                          BitLayout::kColMajorK);
      EXPECT_EQ(plane_words(out), expect) << where;
      const tcsim::Counters got = ctx.counters();
      const tcsim::Counters want = int_ctx.counters();
      EXPECT_EQ(got.saturated, saturated) << where;
      EXPECT_EQ(got.bmma_ops, want.bmma_ops) << where;
      // 3 zero row blocks x 3 K tiles. bitmm_to_int sweeps each of the s x t
      // plane pairs on its own, so it counts every jump once per pair.
      EXPECT_EQ(got.tiles_jumped, 9u) << where;
      EXPECT_EQ(got.tiles_jumped * s * t, want.tiles_jumped) << where;
    }
  }
}

/// The int32 product `raw` through `spec`, and how many values it clamped.
std::pair<MatrixI32, u64> requantized(const MatrixI32& raw,
                                      const tcsim::EpilogueSpec& spec) {
  const tcsim::EpilogueSpec unclamped{spec.act, spec.rshift, -1};
  MatrixI32 q(raw.rows(), raw.cols());
  u64 saturated = 0;
  for (i64 i = 0; i < raw.size(); ++i) {
    q.data()[i] = tcsim::apply_epilogue(raw.data()[i], spec);
    saturated += tcsim::apply_epilogue(raw.data()[i], unclamped) > spec.qmax;
  }
  return {std::move(q), saturated};
}

/// 8 x 128 tiles of `a` that hold a nonzero code: the schedule length every
/// sweep counts bmma_ops and tiles_jumped from, whatever halves it skips.
u64 nonzero_code_tiles(const MatrixI32& a) {
  u64 n = 0;
  for (i64 tm = 0; tm < ceil_div(a.rows(), kTileM); ++tm) {
    for (i64 tk = 0; tk < ceil_div(a.cols(), kTileK); ++tk) {
      bool any = false;
      for (i64 r = tm * kTileM; r < std::min(a.rows(), (tm + 1) * kTileM); ++r) {
        for (i64 c = tk * kTileK; c < std::min(a.cols(), (tk + 1) * kTileK); ++c) {
          any = any || a(r, c) != 0;
        }
      }
      n += any ? 1 : 0;
    }
  }
  return n;
}

TEST(AnyBit, DeadHalvesSkipOnlyZeroWork) {
  // A tile whose low or high 64-bit K half is zero in every A plane, or
  // past K in B, runs only its live half. The output words and saturated
  // count must equal the int32 product followed by apply_epilogue on every
  // backend, and bmma_ops and tiles_jumped must count the schedule's tiles
  // as they did before halves were skipped.
  const i64 n = 70;  // one full 8-tile panel and a ragged one
  const int out_bits = 4;
  const auto spec_for = [&](const MatrixI32& raw) {
    i32 mx = 0;
    for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);
    // One bit short of the calibrated shift, so the clamp fires.
    return tcsim::EpilogueSpec{tcsim::Activation::kRelu,
                               std::max(calibrate_rshift(mx, out_bits) - 1, 0),
                               (1 << out_bits) - 1};
  };

  {
    // Tile-CSR aggregation: 5 row blocks x 3 K tiles (K = 300, so K tile 2
    // holds 44 columns) with hand-placed low-only, high-only and full tiles.
    // Row block 2 stores none.
    const i64 m = 40, k = 300;
    const int t = 4;
    Rng rng(951);
    MatrixI32 adj(m, k, 0);
    struct Placed {
      i64 tm, tk;
      int halves;  // bit h: 64-bit K half h holds edges
    };
    const Placed placed[] = {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {3, 2, 1},
                             {4, 0, 2}, {4, 1, 3}, {4, 2, 1}};
    for (const Placed& p : placed) {
      for (int h = 0; h < 2; ++h) {
        if (((p.halves >> h) & 1) == 0) continue;
        const i64 c0 = p.tk * kTileK + 64 * h;
        adj(p.tm * kTileM + h, c0) = 1;
        for (i64 r = p.tm * kTileM; r < (p.tm + 1) * kTileM; ++r) {
          for (i64 c = c0; c < std::min(c0 + 64, k); ++c) {
            if (rng.next_bool(0.3f)) adj(r, c) = 1;
          }
        }
      }
    }
    const MatrixI32 x = random_codes(rng, k, n, t);
    const BitMatrix p_adj = pack_nonzero(adj, BitLayout::kRowMajorK);
    const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(p_adj);
    ASSERT_EQ(sparse.nnz_tiles(), 7);
    const auto px = StackedBitTensor::decompose(x, t, BitLayout::kColMajorK);
    const MatrixI32 raw = matmul_reference(adj, x);
    const tcsim::EpilogueSpec spec = spec_for(raw);
    const auto [requant, saturated] = requantized(raw, spec);
    ASSERT_GT(saturated, 0u);
    const auto expect = plane_words(StackedBitTensor::decompose(
        requant, out_bits, BitLayout::kRowMajorK, PadPolicy::kTile8));
    const u64 tiles_n = static_cast<u64>(px.plane(0).padded_cols() / kTileN);
    FusedEpilogue epi;
    epi.act = spec.act;
    epi.rshift = spec.rshift;
    for (const auto kind : tcsim::all_backends()) {
      for (const bool csr : {true, false}) {
        const std::string where =
            std::string(tcsim::backend_name(kind)) + (csr ? " tile-CSR" : " dense");
        const tcsim::ExecutionContext int_ctx(kind);
        BmmOptions opt;
        opt.zero_tile_jump = true;
        opt.ctx = &int_ctx;
        EXPECT_EQ(csr ? aggregate_1bit(sparse, px, ReuseMode::kCrossTile, opt)
                      : aggregate_1bit(p_adj, px, ReuseMode::kCrossTile, opt),
                  raw)
            << where;
        const tcsim::ExecutionContext ctx(kind);
        opt.ctx = &ctx;
        const StackedBitTensor out =
            csr ? aggregate_fused_bit(sparse, px, out_bits, epi, opt, PadPolicy::kTile8)
                : aggregate_fused_bit(p_adj, px, out_bits, epi, opt, PadPolicy::kTile8);
        EXPECT_EQ(plane_words(out), expect) << where;
        for (const tcsim::Counters& c : {int_ctx.counters(), ctx.counters()}) {
          EXPECT_EQ(c.bmma_ops, 7 * static_cast<u64>(t) * tiles_n) << where;
          EXPECT_EQ(c.tiles_jumped, 5u * 3u - 7u) << where;
        }
        EXPECT_EQ(ctx.counters().saturated, saturated) << where;
      }
    }
  }

  // Dense any-bit update on either side of each K-half boundary. In every
  // (row block, 64-column chunk) of A the codes are zero, even (plane 0
  // zero, the others not), or unrestricted, so a half is dead in all planes,
  // dead in some, or live.
  const i64 m = 40;
  const int s = 3, t = 2;
  for (const i64 k : {64, 65, 100, 128, 129, 192}) {
    Rng rng(static_cast<u64>(960 + k));
    MatrixI32 a = random_codes(rng, m, k, s);
    for (i64 r = 0; r < m; ++r) {
      for (i64 c = 0; c < k; ++c) {
        const i64 mode = (r / kTileM + c / 64) % 3;
        if (mode == 0) a(r, c) = 0;
        if (mode == 1) a(r, c) &= ~1;
      }
    }
    const MatrixI32 b = random_codes(rng, k, n, t);
    const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
    const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
    const MatrixI32 raw = matmul_reference(a, b);
    const tcsim::EpilogueSpec spec = spec_for(raw);
    const auto [requant, saturated] = requantized(raw, spec);
    ASSERT_GT(saturated, 0u) << "K=" << k;
    const u64 kt = nonzero_code_tiles(a);
    const u64 tiles_m = static_cast<u64>(pad8(m) / kTileM);
    const u64 tiles_k = static_cast<u64>(pad128(k) / kTileK);
    const u64 tiles_n = static_cast<u64>(pb.plane(0).padded_cols() / kTileN);
    FusedEpilogue epi;
    epi.act = spec.act;
    epi.rshift = spec.rshift;
    for (const auto kind : tcsim::all_backends()) {
      for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        const std::string where = std::string(tcsim::backend_name(kind)) +
                                  " K=" + std::to_string(k) +
                                  (layout == BitLayout::kRowMajorK ? " row" : " col");
        const tcsim::ExecutionContext ctx(kind);
        BmmOptions opt;
        opt.zero_tile_jump = true;
        opt.ctx = &ctx;
        const StackedBitTensor out =
            bitmm_fused_bit(pa, pb, out_bits, epi, opt, PadPolicy::kTile8, layout);
        EXPECT_EQ(plane_words(out),
                  plane_words(StackedBitTensor::decompose(requant, out_bits, layout,
                                                          PadPolicy::kTile8)))
            << where;
        const tcsim::Counters c = ctx.counters();
        EXPECT_EQ(c.saturated, saturated) << where;
        EXPECT_EQ(c.bmma_ops, kt * s * t * tiles_n) << where;
        EXPECT_EQ(c.tiles_jumped, tiles_m * tiles_k - kt) << where;
      }
    }
  }
}

/// THE core property (paper §3.1): for random (s, t) bit pairs, the composed
/// product equals the exact integer GEMM of the quantized codes.
class AnyBitComposition
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AnyBitComposition, MatchesIntegerReference) {
  const auto [s, t] = GetParam();
  Rng rng(static_cast<u64>(s * 100 + t));
  const i64 m = rng.next_in(1, 40);
  const i64 k = rng.next_in(1, 260);
  const i64 n = rng.next_in(1, 30);
  const MatrixI32 a = random_codes(rng, m, k, s);
  const MatrixI32 b = random_codes(rng, k, n, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
  const MatrixI32 expect = matmul_reference(a, b);
  EXPECT_EQ(bitmm_to_int(pa, pb), expect);
  EXPECT_EQ(bitmm_fused_int(pa, pb), expect);
  BmmOptions jump;
  jump.zero_tile_jump = true;
  EXPECT_EQ(bitmm_fused_int(pa, pb, {}, jump), expect);
}

INSTANTIATE_TEST_SUITE_P(
    BitPairs, AnyBitComposition,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(1, 2, 3, 4, 6, 8)));

}  // namespace
}  // namespace qgtc
