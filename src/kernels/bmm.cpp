// The bmm wrappers and accumulator helpers. Both bmm_accumulate overloads
// live in anybit_mm.cpp, beside the one tile sweep every product runs.
#include "kernels/bmm.hpp"

#include <algorithm>

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
