#include "kernels/bmm.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace qgtc {

MatrixI32 make_padded_accumulator(const BitMatrix& a, const BitMatrix& b) {
  return MatrixI32(pad8(a.rows()), b.padded_cols(), 0);
}

MatrixI32 slice_logical(const MatrixI32& padded, i64 m, i64 n) {
  MatrixI32 out(m, n);
  for (i64 r = 0; r < m; ++r) {
    std::copy_n(padded.row(r).data(), n, out.row(r).data());
  }
  return out;
}

namespace {

// One row block's surviving tiles + panel sweep, shared by the dense
// (flag-jump) and tile-CSR overloads so the §4.4 panel loop, flush, and
// substrate accounting have exactly one body — the counter parity the
// sparse/dense tests assert is structural, not maintained by hand.
// `fill_refs(tm, refs)` appends the block's surviving tiles and returns the
// jumped count; every referenced tile has row stride `a_stride`.
template <typename FillRefs>
void panel_sweep(const tcsim::ExecutionContext& ctx, i64 tiles_m, i64 a_stride,
                 const BitMatrix& b, MatrixI32& c, int shift, bool use_xor,
                 FillRefs&& fill_refs) {
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_n = b.padded_cols() / kTileN;
  const i64 b_stride = b.k_words();
  const i64 width = be.panel_width();

  // Row-tile blocks are the parallel unit: each thread owns disjoint C rows,
  // so no accumulator races. Dynamic schedule because zero-tile jumping makes
  // per-block work data-dependent.
  parallel_for_dynamic(0, tiles_m, /*chunk=*/1, [&](i64 tm) {
    tcsim::Workspace& ws = ctx.workspace();
    std::vector<tcsim::SparseTileRef>& refs = ws.tile_refs();
    const i64 jumped = fill_refs(tm, refs);

    // Panel form: one mma_panel call sweeps the block's schedule across
    // `width` output-column tiles (the backend's §4.4 blocking factor; 1 for
    // the per-tile backends) and writes them as wrapped u32 tiles. The
    // "<< bitIdx" weighting of Algorithm 1 is folded into the panel (exact
    // uint32 wrap for any shift).
    u32* tiles = ws.acc_tiles(width);
    tcsim::PanelJob job;
    job.a_tiles = refs.data();
    job.n_tiles = static_cast<i64>(refs.size());
    job.a_stride = a_stride;
    job.b_stride = b_stride;
    job.shift = shift;
    job.use_xor = use_xor;
    i64 a_loads = 0;
    for (i64 tn0 = 0; tn0 < tiles_n; tn0 += width) {
      job.nb = std::min<i64>(width, tiles_n - tn0);
      job.b_cols[0] = b.col_words(tn0 * kTileN);
      be.mma_panel(tiles, job);
      a_loads += job.n_tiles;
      for (i64 blk = 0; blk < job.nb; ++blk) {
        tcsim::flush(c.data() + (tm * kTileM) * c.cols() + (tn0 + blk) * kTileN,
                     c.cols(), tiles + blk * kTileM * kTileN);
      }
    }
    // Bulk substrate accounting: one context note per row block.
    tcsim::Counters delta;
    delta.tiles_jumped = static_cast<u64>(jumped);
    delta.bmma_ops = static_cast<u64>(refs.size() * tiles_n);
    delta.frag_loads_a = static_cast<u64>(a_loads);
    delta.frag_loads_b = static_cast<u64>(refs.size() * tiles_n);
    ctx.note(delta);
  });
}

}  // namespace

void bmm_accumulate(const BitMatrix& a, const BitMatrix& b, MatrixI32& c,
                    int shift, const BmmOptions& opt) {
  QGTC_CHECK(a.layout() == BitLayout::kRowMajorK, "A must be kRowMajorK");
  QGTC_CHECK(b.layout() == BitLayout::kColMajorK, "B must be kColMajorK");
  QGTC_CHECK(a.padded_cols() == b.padded_rows(),
             "padded K extents of A and B differ");
  QGTC_CHECK(c.rows() >= pad8(a.rows()) && c.cols() >= b.padded_cols(),
             "accumulator too small for padded output");
  // An all-zero A tile still contributes popcount(B) under XOR, so the §4.3
  // jump is only sound for the AND combine.
  QGTC_CHECK(!(opt.zero_tile_jump && opt.op == tcsim::BmmaOp::kXor),
             "zero-tile jumping is incompatible with the XOR combine");

  const i64 tiles_k = a.padded_cols() / kTileK;
  const i64 a_stride = a.k_words();
  // Gather each row-block's non-zero K tiles into a sparse schedule once;
  // the list is reused for every N tile (amortises the §4.3 test across the
  // full row of output) and executed as panel jobs — the same path the
  // tile-CSR operand takes.
  panel_sweep(resolve_ctx(opt), pad8(a.rows()) / kTileM, a_stride, b, c, shift,
              /*use_xor=*/opt.op == tcsim::BmmaOp::kXor,
              [&](i64 tm, std::vector<tcsim::SparseTileRef>& refs) {
                i64 jumped = 0;
                refs.reserve(static_cast<std::size_t>(tiles_k));
                const u32* a_block = a.row_words(tm * kTileM);
                for (i64 tk = 0; tk < tiles_k; ++tk) {
                  if (opt.zero_tile_jump &&
                      tcsim::tile_is_zero(a_block + tk * kTileKWords,
                                          a_stride)) {
                    ++jumped;
                    continue;
                  }
                  refs.push_back({a_block + tk * kTileKWords, tk});
                }
                return jumped;
              });
}

void bmm_accumulate(const TileSparseBitMatrix& a, const BitMatrix& b,
                    MatrixI32& c, int shift, const BmmOptions& opt) {
  QGTC_CHECK(b.layout() == BitLayout::kColMajorK, "B must be kColMajorK");
  QGTC_CHECK(a.padded_cols() == b.padded_rows(),
             "padded K extents of A and B differ");
  QGTC_CHECK(c.rows() >= a.padded_rows() && c.cols() >= b.padded_cols(),
             "accumulator too small for padded output");
  // The tiles this layout never stored still contribute popcount(B) under
  // XOR, exactly like the §4.3 jump: structural sparsity is AND-only.
  QGTC_CHECK(opt.op != tcsim::BmmaOp::kXor,
             "tile-sparse operands are incompatible with the XOR combine");

  // The stored-tile range *is* the surviving-K list — no scan, no flags.
  // Stored tiles are row-contiguous: stride kTileKWords within a tile.
  panel_sweep(resolve_ctx(opt), a.tiles_m(), kTileKWords, b, c, shift,
              /*use_xor=*/false,
              [&](i64 tm, std::vector<tcsim::SparseTileRef>& refs) {
                refs.reserve(static_cast<std::size_t>(a.row_nnz(tm)));
                for (i64 t = a.row_begin(tm); t < a.row_end(tm); ++t) {
                  refs.push_back({a.tile_words(t), a.tile_col(t)});
                }
                return a.tiles_k() - a.row_nnz(tm);
              });
}

MatrixI32 bmm(const BitMatrix& a, const BitMatrix& b, const BmmOptions& opt) {
  // The padded accumulator comes from the caller thread's arena — epochs of
  // same-shaped batches stop paying an allocation + page-fault per call.
  MatrixI32& padded =
      resolve_ctx(opt).workspace().padded_acc(pad8(a.rows()), b.padded_cols());
  bmm_accumulate(a, b, padded, /*shift=*/0, opt);
  return slice_logical(padded, a.rows(), b.cols());
}

MatrixI32 bmm(const TileSparseBitMatrix& a, const BitMatrix& b,
              const BmmOptions& opt) {
  MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(a.padded_rows(),
                                                              b.padded_cols());
  bmm_accumulate(a, b, padded, /*shift=*/0, opt);
  return slice_logical(padded, a.rows(), b.cols());
}

}  // namespace qgtc
