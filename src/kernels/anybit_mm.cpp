#include "kernels/anybit_mm.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

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

/// True when the 8x128 tile (tm, tk) is zero in every A plane.
bool tile_zero_all_planes(const std::vector<const BitMatrix*>& ap, i64 tm,
                          i64 tk) {
  for (const BitMatrix* p : ap) {
    if (!tcsim::tile_is_zero(p->row_words(tm * kTileM) + tk * kTileKWords,
                             p->k_words())) {
      return false;
    }
  }
  return true;
}

/// Dense A-side tile source: one or more kRowMajorK bit planes whose
/// surviving tiles come from the inline §4.3 OR+ballot test. Tile handles
/// are K-tile indices.
class DensePlanesSource {
 public:
  /// True when absent tiles are structurally skipped regardless of
  /// opt.zero_tile_jump (dense planes: no — the inline test gates skipping).
  static constexpr bool kStructural = false;

  explicit DensePlanesSource(std::vector<const BitMatrix*> ap)
      : ap_(std::move(ap)) {
    QGTC_CHECK(ap_.front()->layout() == BitLayout::kRowMajorK,
               "A planes must be kRowMajorK");
  }

  [[nodiscard]] i64 tiles_m() const { return ap_.front()->padded_rows() / kTileM; }
  [[nodiscard]] i64 tiles_k() const { return ap_.front()->padded_cols() / kTileK; }
  [[nodiscard]] i64 padded_k() const { return ap_.front()->padded_cols(); }
  [[nodiscard]] int planes() const { return static_cast<int>(ap_.size()); }

  /// Upper bound on row block tm's survivor count (dense: every K tile may
  /// survive the flag test).
  [[nodiscard]] i64 survivor_bound(i64) const { return tiles_k(); }

  /// Appends row block tm's surviving tile handles; returns the jump count.
  i64 survivors(i64 tm, const BmmOptions& opt, std::vector<i64>& list) const {
    i64 jumped = 0;
    for (i64 tk = 0; tk < tiles_k(); ++tk) {
      if (opt.zero_tile_jump && tile_zero_all_planes(ap_, tm, tk)) {
        ++jumped;
        continue;
      }
      list.push_back(tk);
    }
    return jumped;
  }

  [[nodiscard]] i64 tile_col(i64 h) const { return h; }
  [[nodiscard]] const u32* tile_ptr(int plane, i64 tm, i64 h) const {
    const BitMatrix& p = *ap_[static_cast<std::size_t>(plane)];
    return p.row_words(tm * kTileM) + h * kTileKWords;
  }
  [[nodiscard]] i64 tile_stride(int plane) const {
    return ap_[static_cast<std::size_t>(plane)]->k_words();
  }

 private:
  std::vector<const BitMatrix*> ap_;
};

/// Structurally sparse A-side tile source: the tile-CSR adjacency. The
/// stored-tile range *is* the surviving list (no scan, no flags); handles
/// are payload indices, always single-plane (the adjacency is 1-bit).
class SparseAdjSource {
 public:
  static constexpr bool kStructural = true;

  explicit SparseAdjSource(const TileSparseBitMatrix& a) : a_(&a) {}

  [[nodiscard]] i64 tiles_m() const { return a_->tiles_m(); }
  [[nodiscard]] i64 tiles_k() const { return a_->tiles_k(); }
  [[nodiscard]] i64 padded_k() const { return a_->padded_cols(); }
  [[nodiscard]] int planes() const { return 1; }

  /// Exact: the tile-CSR already stores each row's schedule length.
  [[nodiscard]] i64 survivor_bound(i64 tm) const { return a_->row_nnz(tm); }

  i64 survivors(i64 tm, const BmmOptions&, std::vector<i64>& list) const {
    for (i64 t = a_->row_begin(tm); t < a_->row_end(tm); ++t) {
      list.push_back(t);
    }
    return a_->tiles_k() - a_->row_nnz(tm);
  }

  [[nodiscard]] i64 tile_col(i64 h) const { return a_->tile_col(h); }
  [[nodiscard]] const u32* tile_ptr(int, i64, i64 h) const {
    return a_->tile_words(h);
  }
  [[nodiscard]] i64 tile_stride(int) const { return kTileKWords; }

 private:
  const TileSparseBitMatrix* a_;
};

/// Single-pass any-bit tile sweep (the §4.4 cross-tile reduction generalised
/// to multi-bit A): for each output tile, every surviving K tile is decoded
/// once per A plane and multiplied against every B plane before moving on.
/// The A operand comes through a tile source (dense planes or the tile-CSR
/// adjacency), so flag-based and structural zero-tile jumping share this one
/// sweep. `consume(tm, tn, acc)` receives the finished tile's raw u64
/// accumulator lanes (backend-opaque layout) and drains them through one of
/// the backend flush variants — epilogue or plane-writer — so the epilogue
/// runs while the lanes are still hot and no intermediate i32 tile is staged
/// in the sweep itself. It returns the tile's saturated-value count; the
/// sweep returns their sum. Tile ops execute on the context's
/// substrate backend; scratch comes from the per-thread workspace arena.
///
/// `parallel_over_n` selects the parallel axis: row-tile blocks when the
/// consumer writes row-owned data (int32 rows / kRowMajorK planes), and
/// column-tile blocks when it writes column-owned data (kColMajorK planes),
/// so plane words are never shared between threads.
template <typename Src, typename Consume>
u64 fused_tile_sweep(const Src& src, const std::vector<const BitMatrix*>& bp,
                      const BmmOptions& opt, bool parallel_over_n,
                      Consume&& consume) {
  const BitMatrix& b0 = *bp.front();
  QGTC_CHECK(b0.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  QGTC_CHECK(src.padded_k() == b0.padded_rows(),
             "padded K extents of A and B differ");
  QGTC_CHECK(!((opt.zero_tile_jump || Src::kStructural) &&
               opt.op == tcsim::BmmaOp::kXor),
             "zero-tile jumping is incompatible with the XOR combine");

  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_m = src.tiles_m();
  const i64 tiles_n = b0.padded_cols() / kTileN;
  const int sa = src.planes();
  const int sb = static_cast<int>(bp.size());
  const bool use_xor = (opt.op == tcsim::BmmaOp::kXor);

  // Surviving tile handles per row block, shared across the N sweep (and
  // across threads when parallelising over N). The list-of-lists lives in
  // the calling thread's arena; inner threads only read it.
  std::vector<std::vector<i64>>& k_lists = ctx.workspace().k_lists(tiles_m);
  std::atomic<u64> saturated{0};
  parallel_for(0, tiles_m, [&](i64 tm) {
    auto& list = k_lists[static_cast<std::size_t>(tm)];
    list.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
    const i64 jumped = src.survivors(tm, opt, list);
    if (jumped > 0) {
      tcsim::Counters delta;
      delta.tiles_jumped = static_cast<u64>(jumped);
      ctx.note(delta);
    }
  });

  if (parallel_over_n) {
    // ColMajorK consumers: parallel over output-column tiles. These products
    // are small (few column tiles), so the simple per-(tm, tn) path is fine.
    parallel_for_dynamic(0, tiles_n, /*chunk=*/1, [&](i64 tn) {
      u64* acc = ctx.workspace().acc_lanes(tcsim::kTileAccLanes);
      tcsim::AFragment frag;
      tcsim::Counters delta;
      u64 sat = 0;
      for (i64 tm = 0; tm < tiles_m; ++tm) {
        std::memset(acc, 0, tcsim::kTileAccLanes * sizeof(u64));
        const auto& k_list = k_lists[static_cast<std::size_t>(tm)];
        for (const i64 h : k_list) {
          const i64 tk = src.tile_col(h);
          for (int ab = 0; ab < sa; ++ab) {
            be.load_a(frag, src.tile_ptr(ab, tm, h), src.tile_stride(ab));
            for (int bb = 0; bb < sb; ++bb) {
              const BitMatrix& pb = *bp[static_cast<std::size_t>(bb)];
              be.mma(acc, frag, pb.col_words(tn * kTileN) + tk * kTileKWords,
                     pb.k_words(), ab + bb, use_xor);
            }
          }
        }
        sat += consume(tm, tn, static_cast<const u64*>(acc));
        const u64 kt = static_cast<u64>(k_list.size());
        delta.bmma_ops += kt * static_cast<u64>(sa) * static_cast<u64>(sb);
        delta.frag_loads_a += kt * static_cast<u64>(sa);
        delta.frag_loads_b += kt * static_cast<u64>(sa) * static_cast<u64>(sb);
      }
      // Bulk substrate accounting: one context note per column-tile sweep.
      ctx.note(delta);
      saturated.fetch_add(sat, std::memory_order_relaxed);
    });
  } else {
    // Cross-tile reduction (§4.4), panel form: a decoded A fragment (one per
    // surviving (tk, plane)) is swept across the backend's panel of
    // output-column tiles and every B bit-plane before the next A tile is
    // touched. This both realises the paper's O(1)-loads claim and amortises
    // per-output-tile bookkeeping over the whole K reduction. The per-tile
    // backends (panel width 1) degenerate to cross-bit-style reloads.
    const i64 width = be.panel_width();
    parallel_for_dynamic(0, tiles_m, /*chunk=*/1, [&](i64 tm) {
      const auto& k_list = k_lists[static_cast<std::size_t>(tm)];
      u64* acc = ctx.workspace().acc_lanes(width * tcsim::kTileAccLanes);
      tcsim::AFragment frag;
      i64 a_loads = 0;
      u64 sat = 0;
      for (i64 tn0 = 0; tn0 < tiles_n; tn0 += width) {
        const i64 nb = std::min<i64>(width, tiles_n - tn0);
        std::memset(acc, 0,
                    static_cast<std::size_t>(nb * tcsim::kTileAccLanes) * sizeof(u64));
        for (const i64 h : k_list) {
          const i64 tk = src.tile_col(h);
          for (int ab = 0; ab < sa; ++ab) {
            be.load_a(frag, src.tile_ptr(ab, tm, h), src.tile_stride(ab));
            ++a_loads;
            for (i64 b = 0; b < nb; ++b) {
              for (int bb = 0; bb < sb; ++bb) {
                const BitMatrix& pb = *bp[static_cast<std::size_t>(bb)];
                be.mma(acc + b * tcsim::kTileAccLanes, frag,
                       pb.col_words((tn0 + b) * kTileN) + tk * kTileKWords,
                       pb.k_words(), ab + bb, use_xor);
              }
            }
          }
        }
        for (i64 b = 0; b < nb; ++b) {
          sat += consume(tm, tn0 + b,
                         static_cast<const u64*>(acc + b * tcsim::kTileAccLanes));
        }
      }
      tcsim::Counters delta;
      const u64 kt = static_cast<u64>(k_list.size());
      delta.bmma_ops =
          kt * static_cast<u64>(sa) * static_cast<u64>(sb) * static_cast<u64>(tiles_n);
      delta.frag_loads_a = static_cast<u64>(a_loads);
      delta.frag_loads_b =
          kt * static_cast<u64>(sa) * static_cast<u64>(sb) * static_cast<u64>(tiles_n);
      ctx.note(delta);
      saturated.fetch_add(sat, std::memory_order_relaxed);
    });
  }
  return saturated.load(std::memory_order_relaxed);
}

/// Applies the optional per-column batch-norm fold (Eq. 8) to one raw
/// accumulator value. The activation itself runs in tcsim::apply_epilogue_tile.
inline i32 apply_bn(i32 v, i64 col, const FusedEpilogue& epi) {
  if (epi.use_bn && col < static_cast<i64>(epi.bn_scale.size())) {
    const float f = static_cast<float>(v) * epi.bn_scale[static_cast<std::size_t>(col)] +
                    epi.bn_bias[static_cast<std::size_t>(col)];
    v = static_cast<i32>(std::lround(f));
  }
  return v;
}

/// Drains one finished accumulator tile into a row-major i32 matrix of
/// logical extent m x n. Interior tiles (full 8x8, no BN) flush straight into
/// the output with the backend's fused epilogue; edge and BN tiles stage
/// through one stack tile. Assigns every covered element. Never clamps
/// (qmax < 0), so there is no saturated count to return.
inline void drain_int_tile(const tcsim::SubstrateBackend& be, i32* out, i64 m,
                           i64 n, i64 tm, i64 tn, const u64* acc,
                           const FusedEpilogue& epi) {
  // The int path applies the activation but never requantizes (rshift/clamp
  // stay with the to-bit path), matching the historical epilogue contract.
  const tcsim::EpilogueSpec spec{epi.act, 0, -1};
  const i64 r0 = tm * kTileM, c0 = tn * kTileN;
  if (!epi.use_bn && r0 + kTileM <= m && c0 + kTileN <= n) {
    be.flush_epilogue(out + r0 * n + c0, n, acc, spec);
    return;
  }
  const i64 rows_here = std::min<i64>(kTileM, m - r0);
  const i64 cols_here = std::min<i64>(kTileN, n - c0);
  alignas(64) i32 tmp[kTileM * kTileN];
  be.flush_epilogue(tmp, kTileN, acc, epi.use_bn ? tcsim::EpilogueSpec{} : spec);
  if (epi.use_bn) {
    for (i64 i = 0; i < rows_here; ++i) {
      for (i64 j = 0; j < cols_here; ++j) {
        tmp[i * kTileN + j] = apply_bn(tmp[i * kTileN + j], c0 + j, epi);
      }
    }
    tcsim::apply_epilogue_tile(tmp, spec);
  }
  for (i64 i = 0; i < rows_here; ++i) {
    std::memcpy(out + (r0 + i) * n + c0, tmp + i * kTileN,
                static_cast<std::size_t>(cols_here) * sizeof(i32));
  }
}

}  // namespace

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
  const tcsim::SubstrateBackend& be = resolve_ctx(opt).backend();
  fused_tile_sweep(DensePlanesSource(plane_ptrs(a)), plane_ptrs(b), opt,
                   /*parallel_over_n=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc, epi);
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
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 line_stride = out.plane(0).k_words();

  const bool parallel_over_n = (out_layout == BitLayout::kColMajorK);
  const u64 saturated = fused_tile_sweep(
      src, bp, opt, parallel_over_n,
      [&](i64 tm, i64 tn, const u64* acc) {
        // Requantize + scatter the 8x8 tile straight from the accumulator
        // lanes: one word OR per (line, plane) — an 8-bit lane always sits
        // inside one u32 word because tile extents divide the 32-bit packing.
        const i64 rows_here = std::min<i64>(kTileM, m - tm * kTileM);
        const i64 cols_here = std::min<i64>(kTileN, n - tn * kTileN);
        u32* planes[32];
        tcsim::PlaneSink sink;
        if (out_layout == BitLayout::kRowMajorK) {
          // Line = output row; 8 column bits land in word (tn*8)/32 at
          // offset (tn%4)*8.
          const i64 word = (tn * kTileN) / kWordBits;
          for (int b = 0; b < out_bits; ++b) {
            planes[b] = out.plane(b).row_words(tm * kTileM) + word;
          }
          sink = {planes,    line_stride,
                  static_cast<int>((tn * kTileN) % kWordBits),
                  out_bits,  rows_here,
                  cols_here, /*transpose=*/false};
        } else {
          // Line = output column; 8 row bits land in word (tm*8)/32 at
          // offset (tm%4)*8.
          const i64 word = (tm * kTileM) / kWordBits;
          for (int b = 0; b < out_bits; ++b) {
            planes[b] = out.plane(b).col_words(tn * kTileN) + word;
          }
          sink = {planes,    line_stride,
                  static_cast<int>((tm * kTileM) % kWordBits),
                  out_bits,  cols_here,
                  rows_here, /*transpose=*/true};
        }
        if (!epi.use_bn) return be.flush_planes(sink, acc, spec);
        // BN tiles stage through one stack tile: raw drain, fp32 fold (the
        // padding is zeroed so it never counts as saturated), then the
        // shared tile epilogue + scatter.
        alignas(64) i32 q[kTileM * kTileN];
        be.flush_epilogue(q, kTileN, acc, tcsim::EpilogueSpec{});
        for (i64 k = 0; k < kTileM * kTileN; ++k) {
          const i64 i = k / kTileN, j = k % kTileN;
          q[k] = i < rows_here && j < cols_here
                     ? apply_bn(q[k], tn * kTileN + j, epi)
                     : 0;
        }
        const u64 sat = tcsim::apply_epilogue_tile(q, spec);
        tcsim::scatter_planes(sink, q);
        return sat;
      });

  // The whole epilogue ran tile-local: the m x n int32 activation matrix the
  // unfused path would have materialised (plus re-read for requantize and
  // decompose) never existed. Both counts are noted once per sweep.
  tcsim::Counters epilogue;
  epilogue.int32_bytes_avoided =
      static_cast<u64>(m) * static_cast<u64>(n) * sizeof(i32);
  epilogue.saturated = saturated;
  ctx.note(epilogue);
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
      bmm_accumulate(a_bin, x.plane(b), padded, b, opt);
    }
    for (i64 r = 0; r < m; ++r) {
      std::memcpy(out.data() + r * n, padded.data() + r * padded.cols(),
                  static_cast<std::size_t>(n) * sizeof(i32));
    }
    return;
  }
  // Figure 6(b): cross-tile reduction via the fused sweep with a single
  // 1-bit A plane (the stored tiles only, for the tile-CSR source).
  const tcsim::SubstrateBackend& be = resolve_ctx(opt).backend();
  fused_tile_sweep(src, plane_ptrs(x), opt, /*parallel_over_n=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc,
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
