#include "bittensor/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.hpp"

namespace qgtc {

QuantParams quant_params_from_data(const MatrixF& m, int bits) {
  QGTC_CHECK(bits >= 1 && bits <= 31, "quantization bits must be in [1,31]");
  // Per-lane min/max and not-finite flags over blocks of kLanes values, so
  // the scan vectorizes; the tail fills the lanes, then one reduction. The
  // bounds equal a sequential std::min/std::max scan's (min and max are
  // order-free on finite floats; only the sign of a zero bound can differ,
  // which no quantized code or dequantized value can tell apart).
  constexpr int kLanes = 16;
  const float* x = m.data();
  const i64 n = m.size();
  const float first = n > 0 ? x[0] : 0.0f;
  float lo_l[kLanes], hi_l[kLanes];
  u8 bad_l[kLanes] = {};
  std::fill_n(lo_l, kLanes, first);
  std::fill_n(hi_l, kLanes, first);
  const auto scan = [&](int l, float v) {
    lo_l[l] = std::min(lo_l[l], v);
    hi_l[l] = std::max(hi_l[l], v);
    bad_l[l] |= !std::isfinite(v);
  };
  i64 i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) scan(l, x[i + l]);
  }
  for (int l = 0; i < n; ++i, ++l) scan(l, x[i]);  // tail: one value a lane
  float lo = first, hi = first;
  bool bad = false;
  for (int l = 0; l < kLanes; ++l) {
    lo = std::min(lo, lo_l[l]);
    hi = std::max(hi, hi_l[l]);
    bad |= bad_l[l] != 0;
  }
  // A NaN would slip past the min/max scan and reach quantize_value's
  // integer cast (UB); an infinity would make the scale infinite.
  QGTC_CHECK(!bad, "quantization input has a NaN or inf value");
  if (hi <= lo) hi = lo + 1.0f;  // degenerate range: keep scale positive
  return QuantParams{lo, hi, bits};
}

void quantize_span(const float* in, i64 n, const QuantParams& p, i32* out) {
  // A local copy: an i32 store through `out` may alias p.bits, which would
  // reload the params every element and keep the loop scalar.
  const QuantParams q = p;
  for (i64 i = 0; i < n; ++i) out[i] = quantize_value(in[i], q);
}

float dequantize_value(i32 q, const QuantParams& p) {
  return p.alpha_min + (static_cast<float>(q) + 0.5f) * p.scale();
}

MatrixI32 quantize_matrix(const MatrixF& m, const QuantParams& p) {
  MatrixI32 out(m.rows(), m.cols());
  parallel_for(0, m.rows(), [&](i64 r) {
    quantize_span(m.row(r).data(), m.cols(), p, out.row(r).data());
  });
  return out;
}

MatrixF dequantize_matrix(const MatrixI32& q, const QuantParams& p) {
  MatrixF out(q.rows(), q.cols());
  parallel_for(0, q.size(), [&](i64 i) {
    out.data()[i] = dequantize_value(q.data()[i], p);
  });
  return out;
}

}  // namespace qgtc
