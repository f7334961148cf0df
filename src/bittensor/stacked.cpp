#include "bittensor/stacked.hpp"

#include <algorithm>

namespace qgtc {

StackedBitTensor StackedBitTensor::decompose(const MatrixI32& q, int bits,
                                             BitLayout layout,
                                             PadPolicy non_k_pad) {
  StackedBitTensor t = zeros(q.rows(), q.cols(), bits, layout, non_k_pad);
  pack_planes(t.planes_, [&q](i64 r, i32* out) {
    std::copy(q.row(r).begin(), q.row(r).end(), out);
  });
  return t;
}

StackedBitTensor StackedBitTensor::quantize(const MatrixF& x,
                                            const QuantParams& p,
                                            BitLayout layout,
                                            PadPolicy non_k_pad) {
  StackedBitTensor t = zeros(x.rows(), x.cols(), p.bits, layout, non_k_pad);
  pack_planes(t.planes_, [&x, &p](i64 r, i32* out) {
    quantize_span(x.row(r).data(), x.cols(), p, out);
  });
  return t;
}

StackedBitTensor StackedBitTensor::zeros(i64 rows, i64 cols, int bits,
                                         BitLayout layout,
                                         PadPolicy non_k_pad) {
  QGTC_CHECK(bits >= 1 && bits <= 31, "stacked bit count must be in [1,31]");
  StackedBitTensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.layout_ = layout;
  t.planes_.reserve(static_cast<std::size_t>(bits));
  for (int b = 0; b < bits; ++b) {
    t.planes_.emplace_back(rows, cols, layout, non_k_pad);
  }
  return t;
}

MatrixI32 StackedBitTensor::compose() const {
  MatrixI32 out(rows_, cols_, 0);
  for (int b = 0; b < bits(); ++b) {
    const BitMatrix& p = plane(b);
    for (i64 r = 0; r < rows_; ++r) {
      for (i64 c = 0; c < cols_; ++c) {
        out(r, c) |= (p.get(r, c) ? 1 : 0) << b;
      }
    }
  }
  return out;
}

i64 StackedBitTensor::bytes() const {
  i64 total = 0;
  for (const BitMatrix& p : planes_) total += p.bytes();
  return total;
}

}  // namespace qgtc
