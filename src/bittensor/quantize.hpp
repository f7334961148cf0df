// Quantization of fp32 values to q-bit unsigned integers (paper §3, Eq. 2):
//
//   alpha_q = floor((alpha - alpha_min) / scale),
//   scale   = (alpha_max - alpha_min) / 2^q,
//
// with alpha_min / alpha_max empirical bounds. Values are clamped into
// [0, 2^q - 1] so out-of-range inputs saturate instead of wrapping.
#pragma once

#include <algorithm>

#include "common/defs.hpp"
#include "common/matrix.hpp"

namespace qgtc {

struct QuantParams {
  float alpha_min = 0.0f;
  float alpha_max = 1.0f;
  int bits = 8;

  /// Eq. 2 scale: value range divided by the q-bit code range.
  [[nodiscard]] float scale() const {
    return (alpha_max - alpha_min) / static_cast<float>(1u << bits);
  }
  /// Largest representable code.
  [[nodiscard]] i32 qmax() const { return static_cast<i32>((1u << bits) - 1); }
};

/// Derive empirical bounds from the data itself (the "determined by users or
/// application settings" case defaults to observed min/max). Throws on a NaN
/// or infinite value.
QuantParams quant_params_from_data(const MatrixF& m, int bits);

/// Quantize a single value per Eq. 2 (floor + clamp).
inline i32 quantize_value(float alpha, const QuantParams& p) {
  // Clamp y in double before the integer cast: at 31 bits the unclamped code
  // can exceed the int32 range, and float->int overflow is UB. Once y is
  // clamped into [0, qmax], truncation toward zero equals floor, and unlike
  // std::floor (kept scalar under -ftrapping-math) it vectorizes.
  const double y = (static_cast<double>(alpha) - p.alpha_min) / p.scale();
  return static_cast<i32>(std::clamp(y, 0.0, static_cast<double>(p.qmax())));
}

/// quantize_value over n contiguous values: the loop quantize_matrix and
/// StackedBitTensor::quantize share.
void quantize_span(const float* in, i64 n, const QuantParams& p, i32* out);

/// Dequantize a code back to fp32 (code-midpoint convention, so the
/// round-trip error of quantize->dequantize is bounded by scale/2 + ulp).
float dequantize_value(i32 q, const QuantParams& p);

/// Elementwise quantization of a matrix.
MatrixI32 quantize_matrix(const MatrixF& m, const QuantParams& p);

/// Elementwise dequantization of a matrix.
MatrixF dequantize_matrix(const MatrixI32& q, const QuantParams& p);

}  // namespace qgtc
