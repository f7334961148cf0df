// 3D-stacked bit compression (paper §4.2, Figure 4): an s-bit matrix is
// stored as s packed 1-bit planes stacked along the z-axis. Plane b holds
// bit b (LSB = plane 0) of every quantized element. This is the bit-Tensor
// storage format the whole QGTC kernel stack computes on.
#pragma once

#include <vector>

#include "bittensor/bit_matrix.hpp"
#include "bittensor/quantize.hpp"

namespace qgtc {

class StackedBitTensor {
 public:
  StackedBitTensor() = default;

  /// Decompose a quantized int32 matrix (values in [0, 2^bits)) into `bits`
  /// stacked planes. `bitDecompose` of Algorithm 1. Bits at or above `bits`
  /// are dropped.
  static StackedBitTensor decompose(const MatrixI32& q, int bits,
                                    BitLayout layout,
                                    PadPolicy non_k_pad = PadPolicy::kTile8);

  /// Quantize (Eq. 2) and decompose in the same sweep, with no int32
  /// intermediate: equals decompose(quantize_matrix(x, p), p.bits, ...).
  static StackedBitTensor quantize(const MatrixF& x, const QuantParams& p,
                                   BitLayout layout,
                                   PadPolicy non_k_pad = PadPolicy::kTile8);

  /// All-zero planes of the given logical shape (cheap output allocation for
  /// fused kernels — no input matrix is scanned).
  static StackedBitTensor zeros(i64 rows, i64 cols, int bits, BitLayout layout,
                                PadPolicy non_k_pad = PadPolicy::kTile8);

  [[nodiscard]] int bits() const { return static_cast<int>(planes_.size()); }
  [[nodiscard]] i64 rows() const { return rows_; }
  [[nodiscard]] i64 cols() const { return cols_; }
  [[nodiscard]] BitLayout layout() const { return layout_; }

  [[nodiscard]] const BitMatrix& plane(int b) const { return planes_[static_cast<std::size_t>(b)]; }
  [[nodiscard]] BitMatrix& plane(int b) { return planes_[static_cast<std::size_t>(b)]; }

  /// Recompose the quantized int32 matrix: sum_b plane_b << b.
  /// (`Tensor.to_val` of paper §5.)
  [[nodiscard]] MatrixI32 compose() const;

  /// Total packed bytes across all planes (the PCIe payload size).
  [[nodiscard]] i64 bytes() const;

 private:
  i64 rows_ = 0, cols_ = 0;
  BitLayout layout_ = BitLayout::kRowMajorK;
  std::vector<BitMatrix> planes_;
};

}  // namespace qgtc
