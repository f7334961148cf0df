#include "kernels/anybit_mm.hpp"

#include <bit>
#include <cstring>
#include <span>

#include "parallel/parallel_for.hpp"

namespace qgtc {


void check_accumulator_bounds(i64 k, int s_bits, int t_bits) {
  const i64 max_val = k * ((i64{1} << s_bits) - 1) * ((i64{1} << t_bits) - 1);
  QGTC_CHECK(max_val <= i64{INT32_MAX},
             "K * (2^s-1) * (2^t-1) exceeds the int32 accumulator range; "
             "split K or reduce bitwidths");
}

int calibrate_rshift(i32 max_acc, int out_bits) {
  if (max_acc <= 0) return 0;
  const int bits_needed =
      32 - std::countl_zero(static_cast<u32>(max_acc));
  return bits_needed > out_bits ? bits_needed - out_bits : 0;
}

namespace {

/// Collect the plane pointers of a stacked tensor.
std::vector<const BitMatrix*> plane_ptrs(const StackedBitTensor& t) {
  std::vector<const BitMatrix*> p;
  p.reserve(static_cast<std::size_t>(t.bits()));
  for (int b = 0; b < t.bits(); ++b) p.push_back(&t.plane(b));
  return p;
}

/// Dense A-side tile source: one or more kRowMajorK bit planes whose
/// surviving tiles come from the inline §4.3 OR+ballot test.
class DensePlanesSource {
 public:
  explicit DensePlanesSource(std::vector<const BitMatrix*> ap)
      : ap_(std::move(ap)) {
    QGTC_CHECK(ap_.front()->layout() == BitLayout::kRowMajorK,
               "A planes must be kRowMajorK");
    for (const BitMatrix* p : ap_) {
      QGTC_CHECK(p->k_words() == a_stride(), "A planes must share one stride");
    }
  }

  /// Row blocks of the output: pad8(M) / 8, whatever the planes' non-K
  /// padding (a kOperand128 operand's pad128 rows past pad8(M) are zero).
  [[nodiscard]] i64 tiles_m() const { return pad8(ap_.front()->rows()) / kTileM; }
  [[nodiscard]] i64 tiles_k() const { return ap_.front()->padded_cols() / kTileK; }
  [[nodiscard]] i64 padded_k() const { return ap_.front()->padded_cols(); }
  [[nodiscard]] int planes() const { return static_cast<int>(ap_.size()); }
  [[nodiscard]] i64 a_stride() const { return ap_.front()->k_words(); }

  /// Upper bound on row block tm's schedule length (dense: every K tile may
  /// survive the flag test, once per plane).
  [[nodiscard]] i64 survivor_bound(i64) const { return tiles_k() * planes(); }

  /// Appends row block tm's surviving tiles, plane-minor (one ref per plane
  /// per surviving K tile); every K tile it leaves out was jumped. With
  /// zero_tile_jump the §4.3 OR test runs over every plane, split into the
  /// two 64-bit K halves: a tile zero in all planes is jumped, and a half
  /// zero in all planes is marked dead. Without it every tile survives with
  /// both halves live, untested.
  void survivors(i64 tm, const BmmOptions& opt,
                 std::vector<tcsim::SparseTileRef>& refs) const {
    for (i64 tk = 0; tk < tiles_k(); ++tk) {
      const i64 off = tk * kTileKWords;
      int live = 3;
      if (opt.zero_tile_jump) {
        live = 0;
        for (const BitMatrix* p : ap_) {
          live |= tcsim::tile_live_halves(p->row_words(tm * kTileM) + off, a_stride());
          if (live == 3) break;
        }
        if (live == 0) continue;
      }
      for (const BitMatrix* p : ap_) {
        refs.push_back({p->row_words(tm * kTileM) + off, tk, live});
      }
    }
  }

 private:
  std::vector<const BitMatrix*> ap_;
};

/// Structurally sparse A-side tile source: the tile-CSR adjacency. The
/// stored-tile range *is* the surviving list (no scan, no flags), always
/// single-plane (the adjacency is 1-bit).
class SparseAdjSource {
 public:
  explicit SparseAdjSource(const TileSparseBitMatrix& a) : a_(&a) {}

  [[nodiscard]] i64 tiles_m() const { return a_->tiles_m(); }
  [[nodiscard]] i64 tiles_k() const { return a_->tiles_k(); }
  [[nodiscard]] i64 padded_k() const { return a_->padded_cols(); }
  [[nodiscard]] int planes() const { return 1; }
  /// Stored tiles are row-contiguous.
  [[nodiscard]] i64 a_stride() const { return kTileKWords; }

  /// Exact: the tile-CSR already stores each row's schedule length.
  [[nodiscard]] i64 survivor_bound(i64 tm) const { return a_->row_nnz(tm); }

  /// Appends row block tm's stored tiles, each with the K halves its 8 rows
  /// use.
  void survivors(i64 tm, const BmmOptions&,
                 std::vector<tcsim::SparseTileRef>& refs) const {
    for (i64 t = a_->row_begin(tm); t < a_->row_end(tm); ++t) {
      refs.push_back({a_->tile_words(t), a_->tile_col(t),
                      tcsim::tile_live_halves(a_->tile_words(t), kTileKWords)});
    }
  }

 private:
  const TileSparseBitMatrix* a_;
};

/// The one tile sweep every product runs (the §4.4 cross-tile reduction
/// generalised to multi-bit A): for each output tile, every surviving K tile
/// of every A plane is multiplied against every B plane before moving on.
/// The A operand comes through a tile source (dense planes or the tile-CSR
/// adjacency), so flag-based and structural zero-tile jumping share this one
/// sweep, and each row block's survivors become a SparseTileRef schedule.
/// Each mma_panel call writes its output tiles as wrapped u32[8][8], every
/// term weighted << (shift + ab + bb). `consume(tm, tn, nb, tiles)` receives
/// one finished panel of nb tiles while it is still hot and drains it — a
/// wrapping add, the epilogue or the plane writer — so no intermediate i32
/// matrix is staged in the sweep itself. It returns the panel's
/// saturated-value count.
///
/// `parallel_over_n` selects the parallel axis and with it the panel shape:
///  * false: row blocks are parallel, for consumers that write row-owned data
///    (int32 rows / kRowMajorK planes). A panel is one mma_panel call: the
///    nb tiles of row block tm from output-column tile tn on.
///  * true: output-column tiles are parallel, for kColMajorK planes. Each
///    mma_panel call is one tile, and a panel is a column band: the nb tiles
///    of column tile tn from row block tm on, tm a multiple of kPanelWidth.
/// Either way plane words are never shared between threads.
///
/// The sweep's counters are noted once, from the calling thread: workers
/// write per-row-block (per-column-tile) counts into the caller's workspace
/// arena, and the caller sums them after the loop. A row block's schedule
/// holds kt of its tiles_k K tiles, so it jumped tiles_k - kt.
template <typename Src, typename Consume>
void fused_tile_sweep(const Src& src, const std::vector<const BitMatrix*>& bp,
                      const BmmOptions& opt, int shift, bool parallel_over_n,
                      Consume&& consume) {
  const BitMatrix& b0 = *bp.front();
  QGTC_CHECK(b0.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  QGTC_CHECK(src.padded_k() == b0.padded_rows(),
             "padded K extents of A and B differ");
  QGTC_CHECK(bp.size() <= static_cast<std::size_t>(tcsim::kMaxPanelPlanes),
             "more B planes than a sweep packs");
  for (const BitMatrix* p : bp) {
    QGTC_CHECK(p->k_words() == b0.k_words(), "B planes must share one stride");
  }

  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_m = src.tiles_m();
  const i64 tiles_n = b0.padded_cols() / kTileN;
  const auto sa = static_cast<u64>(src.planes());
  const auto sb = static_cast<u64>(bp.size());

  // Row block tm's surviving tiles, appended to `refs`, become its sparse
  // schedule, shared across the N sweep. B planes are zero past their K
  // logical rows (StackedBitTensor's padding invariant), so the high 64-bit
  // half of every K tile from hi_dead on is dead, whatever A holds there.
  const i64 hi_dead = std::max<i64>(0, ceil_div(b0.rows() - 64, kTileK));
  const auto build_schedule = [&](i64 tm, std::vector<tcsim::SparseTileRef>& refs) {
    refs.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
    src.survivors(tm, opt, refs);
    for (tcsim::SparseTileRef& r : refs) {
      if (r.k_tile >= hi_dead) r.live &= 1;
    }
  };

  // B is packed once, in the calling thread's arena, and only read after
  // that: every row block reuses the slices of the K tiles it stores.
  const i64 tiles_k = src.tiles_k();
  const i64 slices_per_tn = tiles_k * static_cast<i64>(sb) * tcsim::kSliceWords;
  u64* packed_b = ctx.workspace().b_slices(tiles_n * slices_per_tn);
  const u32* b_cols[tcsim::kMaxPanelPlanes];
  for (std::size_t bb = 0; bb < sb; ++bb) b_cols[bb] = bp[bb]->col_words(0);
  tcsim::pack_b(packed_b, b_cols, static_cast<int>(sb), b0.k_words(), tiles_n,
                tiles_k);

  // Every panel job shares the planes, strides and shift; per panel only
  // the schedule, the first B slice and nb change.
  tcsim::PanelJob base;
  base.a_planes = static_cast<int>(sa);
  base.a_stride = src.a_stride();
  base.b_planes = static_cast<int>(sb);
  base.b_tiles_k = tiles_k;
  base.shift = shift;
  const auto panel_job = [&](const std::vector<tcsim::SparseTileRef>& refs,
                             i64 tn0, i64 nb) {
    tcsim::PanelJob job = base;
    job.a_tiles = refs.data();
    job.n_tiles = static_cast<i64>(refs.size() / sa);
    job.b = packed_b + tn0 * slices_per_tn;
    job.nb = nb;
    return job;
  };

  // Surviving K tiles summed over row blocks, and the mma_panel calls each
  // row block takes; every call loads the block's kt tiles of each A plane.
  u64 kt_sum = 0;
  u64 calls_per_block = 0;
  u64 saturated = 0;
  if (parallel_over_n) {
    // Every schedule is built first, in the calling thread's arena, and then
    // read by all threads. Each thread owns column tile tn and walks every
    // row block, one tile per mma_panel call, into slot tm % kPanelWidth of
    // its band; a full band (and the last, partial one) goes to the consumer.
    const std::span<std::vector<tcsim::SparseTileRef>> k_lists =
        ctx.workspace().k_lists(tiles_m);
    parallel_for(0, tiles_m, [&](i64 tm) {
      build_schedule(tm, k_lists[static_cast<std::size_t>(tm)]);
    });
    for (const auto& refs : k_lists) kt_sum += refs.size() / sa;
    const std::span<u64> sat_of = ctx.workspace().sweep_counts(tiles_n);
    parallel_for_dynamic(0, tiles_n, /*chunk=*/1, [&](i64 tn) {
      u32* band = ctx.workspace().acc_tiles(tcsim::kPanelWidth);
      u64 sat = 0;
      for (i64 tm = 0; tm < tiles_m; ++tm) {
        const i64 slot = tm % tcsim::kPanelWidth;
        be.mma_panel(band + slot * kTileM * kTileN,
                     panel_job(k_lists[static_cast<std::size_t>(tm)], tn, 1));
        if (slot == tcsim::kPanelWidth - 1 || tm == tiles_m - 1) {
          sat += consume(tm - slot, tn, slot + 1, band);
        }
      }
      sat_of[static_cast<std::size_t>(tn)] = sat;
    });
    for (const u64 sat : sat_of) saturated += sat;
    calls_per_block = static_cast<u64>(tiles_n);
  } else {
    // Cross-tile reduction (§4.4), panel form: the thread that runs a row
    // block builds its schedule in its own arena (so no schedule moves
    // between cores), then the backend sweeps it across a panel of
    // kPanelWidth output-column tiles and every B bit-plane in one call. This
    // both realises the paper's O(1)-loads claim and amortises
    // per-output-tile bookkeeping over the whole K reduction. Dynamic
    // schedule because zero-tile jumping makes per-block work data-dependent.
    const std::span<u64> counts = ctx.workspace().sweep_counts(2 * tiles_m);
    parallel_for_dynamic(0, tiles_m, /*chunk=*/1, [&](i64 tm) {
      tcsim::Workspace& ws = ctx.workspace();
      std::vector<tcsim::SparseTileRef>& refs = ws.k_lists(1).front();
      build_schedule(tm, refs);
      u32* tiles = ws.acc_tiles(tcsim::kPanelWidth);
      u64 sat = 0;
      for (i64 tn0 = 0; tn0 < tiles_n; tn0 += tcsim::kPanelWidth) {
        const i64 nb = std::min<i64>(tcsim::kPanelWidth, tiles_n - tn0);
        be.mma_panel(tiles, panel_job(refs, tn0, nb));
        sat += consume(tm, tn0, nb, tiles);
      }
      counts[static_cast<std::size_t>(tm)] = refs.size() / sa;
      counts[static_cast<std::size_t>(tiles_m + tm)] = sat;
    });
    for (i64 tm = 0; tm < tiles_m; ++tm) {
      kt_sum += counts[static_cast<std::size_t>(tm)];
      saturated += counts[static_cast<std::size_t>(tiles_m + tm)];
    }
    calls_per_block = static_cast<u64>(ceil_div(tiles_n, tcsim::kPanelWidth));
  }

  // Bulk substrate accounting: one context note per sweep.
  tcsim::Counters total;
  total.bmma_ops = kt_sum * sa * sb * static_cast<u64>(tiles_n);
  total.frag_loads_a = kt_sum * calls_per_block * sa;
  total.frag_loads_b = total.bmma_ops;
  total.tiles_jumped = static_cast<u64>(tiles_m * src.tiles_k()) - kt_sum;
  total.saturated = saturated;
  ctx.note(total);
}

/// C (+)= (A x B) << shift through the one sweep: each finished tile is
/// added into C's rows with a wrapping flush (Algorithm 1's cross-bit pass).
template <typename Src>
void accumulate_into(const Src& src, const BitMatrix& b, MatrixI32& c,
                     int shift, const BmmOptions& opt) {
  fused_tile_sweep(src, {&b}, opt, shift, /*parallel_over_n=*/false,
                   [&](i64 tm, i64 tn0, i64 nb, const u32* tiles) {
                     i32* out = c.data() + tm * kTileM * c.cols() + tn0 * kTileN;
                     for (i64 b = 0; b < nb; ++b) {
                       tcsim::flush(out + b * kTileN, c.cols(),
                                    tiles + b * kTileM * kTileN);
                     }
                     return u64{0};
                   });
}

/// Drains one finished output tile into a row-major i32 matrix of logical
/// extent m x n. Interior tiles (full 8x8) flush straight into the output
/// with the fused epilogue; edge tiles stage through one stack tile. Assigns
/// every covered element. Never clamps (qmax < 0), so there is no saturated
/// count to return.
inline void drain_int_tile(i32* out, i64 m, i64 n, i64 tm, i64 tn,
                           const u32* tile, const FusedEpilogue& epi) {
  // The int path applies the activation but never requantizes (rshift/clamp
  // stay with the to-bit path), matching the historical epilogue contract.
  const tcsim::EpilogueSpec spec{epi.act, 0, -1};
  const i64 r0 = tm * kTileM, c0 = tn * kTileN;
  if (r0 + kTileM <= m && c0 + kTileN <= n) {
    tcsim::flush_epilogue(out + r0 * n + c0, n, tile, spec);
    return;
  }
  const i64 rows_here = std::min<i64>(kTileM, m - r0);
  const i64 cols_here = std::min<i64>(kTileN, n - c0);
  alignas(64) i32 tmp[kTileM * kTileN];
  tcsim::flush_epilogue(tmp, kTileN, tile, spec);
  for (i64 i = 0; i < rows_here; ++i) {
    std::memcpy(out + (r0 + i) * n + c0, tmp + i * kTileN,
                static_cast<std::size_t>(cols_here) * sizeof(i32));
  }
}

/// drain_int_tile over the nb tiles of one finished panel.
void drain_int_panel(i32* out, i64 m, i64 n, i64 tm, i64 tn0, i64 nb,
                     const u32* tiles, const FusedEpilogue& epi) {
  for (i64 b = 0; b < nb; ++b) {
    drain_int_tile(out, m, n, tm, tn0 + b, tiles + b * kTileM * kTileN, epi);
  }
}

}  // namespace

void bmm_accumulate(const BitMatrix& a, const BitMatrix& b, MatrixI32& c,
                    int shift, const BmmOptions& opt) {
  QGTC_CHECK(c.rows() >= pad8(a.rows()) && c.cols() >= b.padded_cols(),
             "accumulator too small for padded output");
  accumulate_into(DensePlanesSource({&a}), b, c, shift, opt);
}

void bmm_accumulate(const TileSparseBitMatrix& a, const BitMatrix& b,
                    MatrixI32& c, int shift, const BmmOptions& opt) {
  QGTC_CHECK(c.rows() >= a.padded_rows() && c.cols() >= b.padded_cols(),
             "accumulator too small for padded output");
  accumulate_into(SparseAdjSource(a), b, c, shift, opt);
}

MatrixI32 bitmm_to_int(const StackedBitTensor& a, const StackedBitTensor& b,
                       const BmmOptions& opt) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_to_int: inner dimensions differ");
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(
      pad8(a.plane(0).rows()), b.plane(0).padded_cols());
  for (int ab = 0; ab < a.bits(); ++ab) {
    for (int bb = 0; bb < b.bits(); ++bb) {
      bmm_accumulate(a.plane(ab), b.plane(bb), padded, ab + bb, opt);
    }
  }
  return slice_logical(padded, a.rows(), b.cols());
}

MatrixI32 bitmm_fused_int(const StackedBitTensor& a, const StackedBitTensor& b,
                          const FusedEpilogue& epi, const BmmOptions& opt) {
  MatrixI32 out(a.rows(), b.cols());
  bitmm_fused_int_into(a, b, out, epi, opt);
  return out;
}

void bitmm_fused_int_into(const StackedBitTensor& a, const StackedBitTensor& b,
                          MatrixI32& out, const FusedEpilogue& epi,
                          const BmmOptions& opt) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_fused_int: inner dimensions differ");
  QGTC_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
             "bitmm_fused_int_into: output shape mismatch");
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  const i64 m = a.rows(), n = b.cols();
  fused_tile_sweep(DensePlanesSource(plane_ptrs(a)), plane_ptrs(b), opt,
                   /*shift=*/0, /*parallel_over_n=*/false,
                   [&](i64 tm, i64 tn0, i64 nb, const u32* tiles) {
                     drain_int_panel(out.data(), m, n, tm, tn0, nb, tiles, epi);
                     return u64{0};
                   });
}

namespace {

/// Shared implementation of the fused to-bit epilogue: requantize each tile
/// value and scatter its bits into the output planes. `src` is the A-side
/// tile source (dense planes or the tile-CSR adjacency).
template <typename Src>
StackedBitTensor fused_bit_output(const Src& src,
                                  const std::vector<const BitMatrix*>& bp,
                                  i64 m, i64 n, int out_bits,
                                  const FusedEpilogue& epi,
                                  const BmmOptions& opt, PadPolicy out_pad,
                                  BitLayout out_layout) {
  // Build output planes directly; bit-decomposition never materialises an
  // int32 matrix in "global memory" (§4.5).
  StackedBitTensor out =
      StackedBitTensor::zeros(m, n, out_bits, out_layout, out_pad);
  const i32 qmax = static_cast<i32>((u32{1} << out_bits) - 1);
  const tcsim::EpilogueSpec spec{epi.act, epi.rshift, qmax};
  const i64 line_stride = out.plane(0).k_words();
  const bool row_major = out_layout == BitLayout::kRowMajorK;

  fused_tile_sweep(
      src, bp, opt, /*shift=*/0, /*parallel_over_n=*/!row_major,
      [&](i64 tm, i64 tn, i64 nb, const u32* tiles) {
        // A line is an output row (kRowMajorK) or column (kColMajorK). The
        // panel starts a 64-bit line word: a row panel's first column and a
        // column band's first row are multiples of 8 tiles. The sweep gives
        // this thread the whole panel's lines (row block tm, or column tile
        // tn), so the drain may store whole line words.
        const i64 line0 = row_major ? tm * kTileM : tn * kTileN;
        const i64 lane0 = row_major ? tn * kTileN : tm * kTileM;
        u32* planes[32];
        for (int b = 0; b < out_bits; ++b) {
          BitMatrix& p = out.plane(b);
          planes[b] = (row_major ? p.row_words(line0) : p.col_words(line0)) +
                      lane0 / kWordBits;
        }
        const i64 lines = std::min<i64>(kTileM, (row_major ? m : n) - line0);
        const i64 lanes = std::min<i64>(nb * kTileN, (row_major ? n : m) - lane0);
        return tcsim::flush_planes_panel(
            {planes, line_stride, /*shift=*/0, out_bits, lines, lanes,
             /*transpose=*/!row_major},
            tiles, nb, spec);
      });

  // The whole epilogue ran tile-local: the m x n int32 activation matrix the
  // unfused path would have materialised (plus re-read for requantize and
  // decompose) never existed.
  tcsim::Counters epilogue;
  epilogue.int32_bytes_avoided =
      static_cast<u64>(m) * static_cast<u64>(n) * sizeof(i32);
  resolve_ctx(opt).note(epilogue);
  return out;
}

}  // namespace

StackedBitTensor bitmm_fused_bit(const StackedBitTensor& a,
                                 const StackedBitTensor& b, int out_bits,
                                 const FusedEpilogue& epi,
                                 const BmmOptions& opt, PadPolicy out_pad,
                                 BitLayout out_layout) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_fused_bit: inner dimensions differ");
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  return fused_bit_output(DensePlanesSource(plane_ptrs(a)), plane_ptrs(b),
                          a.rows(), b.cols(), out_bits, epi, opt, out_pad,
                          out_layout);
}

namespace {

/// Shared aggregate_1bit body, generic over the adjacency representation
/// (bmm_accumulate overloads on it) and its tile source. `padded_m` is the
/// representation's padded row extent for the cross-bit accumulator.
/// Assigns every element of `out` (a_bin.rows x x.cols).
template <typename AdjT, typename Src>
void aggregate_1bit_into_impl(const AdjT& a_bin, i64 padded_m, const Src& src,
                              const StackedBitTensor& x, ReuseMode mode,
                              MatrixI32& out, const BmmOptions& opt) {
  QGTC_CHECK(a_bin.cols() == x.rows(), "aggregate_1bit: dimension mismatch");
  QGTC_CHECK(out.rows() == a_bin.rows() && out.cols() == x.cols(),
             "aggregate_1bit_into: output shape mismatch");
  if (!opt.allow_overflow) check_accumulator_bounds(a_bin.cols(), 1, x.bits());
  const i64 m = a_bin.rows(), n = x.cols();
  if (mode == ReuseMode::kCrossBit) {
    // Figure 6(a): one complete BMM pass per bit-plane; every surviving A
    // tile is re-loaded for each plane.
    MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(
        padded_m, x.plane(0).padded_cols());
    for (int b = 0; b < x.bits(); ++b) {
      accumulate_into(src, x.plane(b), padded, b, opt);
    }
    for (i64 r = 0; r < m; ++r) {
      std::memcpy(out.data() + r * n, padded.data() + r * padded.cols(),
                  static_cast<std::size_t>(n) * sizeof(i32));
    }
    return;
  }
  // Figure 6(b): cross-tile reduction via the fused sweep with a single
  // 1-bit A plane (the stored tiles only, for the tile-CSR source).
  fused_tile_sweep(src, plane_ptrs(x), opt, /*shift=*/0,
                   /*parallel_over_n=*/false,
                   [&](i64 tm, i64 tn0, i64 nb, const u32* tiles) {
                     drain_int_panel(out.data(), m, n, tm, tn0, nb, tiles,
                                     FusedEpilogue{});
                     return u64{0};
                   });
}

}  // namespace

MatrixI32 aggregate_1bit(const BitMatrix& a_bin, const StackedBitTensor& x,
                         ReuseMode mode, const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into_impl(a_bin, pad8(a_bin.rows()),
                           DensePlanesSource({&a_bin}), x, mode, out, opt);
  return out;
}

MatrixI32 aggregate_1bit(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into_impl(a_bin, a_bin.padded_rows(), SparseAdjSource(a_bin),
                           x, mode, out, opt);
  return out;
}

void aggregate_1bit_into(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         MatrixI32& out, const BmmOptions& opt) {
  aggregate_1bit_into_impl(a_bin, a_bin.padded_rows(), SparseAdjSource(a_bin),
                           x, mode, out, opt);
}

StackedBitTensor aggregate_fused_bit(const BitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad) {
  QGTC_CHECK(a_bin.cols() == x.rows(), "aggregate_fused_bit: dimension mismatch");
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  if (!opt.allow_overflow) check_accumulator_bounds(a_bin.cols(), 1, x.bits());
  return fused_bit_output(DensePlanesSource({&a_bin}), plane_ptrs(x),
                          a_bin.rows(), x.cols(), out_bits, epi, opt, out_pad,
                          BitLayout::kRowMajorK);
}

StackedBitTensor aggregate_fused_bit(const TileSparseBitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad) {
  QGTC_CHECK(a_bin.cols() == x.rows(), "aggregate_fused_bit: dimension mismatch");
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  if (!opt.allow_overflow) check_accumulator_bounds(a_bin.cols(), 1, x.bits());
  return fused_bit_output(SparseAdjSource(a_bin), plane_ptrs(x), a_bin.rows(),
                          x.cols(), out_bits, epi, opt, out_pad,
                          BitLayout::kRowMajorK);
}

}  // namespace qgtc
