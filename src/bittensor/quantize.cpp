#include "bittensor/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.hpp"

namespace qgtc {

QuantParams quant_params_from_data(const MatrixF& m, int bits) {
  QGTC_CHECK(bits >= 1 && bits <= 31, "quantization bits must be in [1,31]");
  float lo = 0.0f, hi = 0.0f;
  if (m.size() > 0) lo = hi = m.data()[0];
  for (i64 i = 0; i < m.size(); ++i) {
    const float v = m.data()[i];
    // A NaN would slip past the min/max scan and reach quantize_value's
    // integer cast (UB); an infinity would make the scale infinite.
    QGTC_CHECK(std::isfinite(v), "quantization input has a NaN or inf value");
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) hi = lo + 1.0f;  // degenerate range: keep scale positive
  return QuantParams{lo, hi, bits};
}

float dequantize_value(i32 q, const QuantParams& p) {
  return p.alpha_min + (static_cast<float>(q) + 0.5f) * p.scale();
}

MatrixI32 quantize_matrix(const MatrixF& m, const QuantParams& p) {
  MatrixI32 out(m.rows(), m.cols());
  parallel_for(0, m.size(), [&](i64 i) {
    out.data()[i] = quantize_value(m.data()[i], p);
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
