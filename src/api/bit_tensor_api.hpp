// The framework-integration surface of paper §5, mirrored in C++ (the paper
// binds these into PyTorch; the semantics live here). A BitTensor rides on
// int32 storage ("the vehicle"), exposes `to_bit`/`to_val` conversions, and
// the two MM entry points:
//
//   bitMM2Int(C, A, B, bit_A, bit_B)        -> int32 Tensor output
//   bitMM2Bit(C, A, B, bit_A, bit_B, bit_C) -> quantized bit-Tensor output
//
// A caller that wants its own backend or counters holds a
// tcsim::ExecutionContext and passes it as BmmOptions::ctx.
#pragma once

#include "bittensor/stacked.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc::api {

/// A quantized tensor held as 3D-stacked bit planes plus the quantization
/// parameters needed to decode element values.
class BitTensor {
 public:
  BitTensor() = default;

  /// `Tensor.to_bit(nbits)`: quantize an fp32 tensor per Eq. 2 and pack.
  /// `side` selects the MM operand layout this tensor will be used as.
  enum class Side { kLeft, kRight };
  static BitTensor to_bit(const MatrixF& dense, int nbits,
                          Side side = Side::kLeft);

  /// Wrap an already-quantized int32 tensor (values in [0, 2^nbits)).
  static BitTensor from_quantized(const MatrixI32& q, int nbits,
                                  Side side = Side::kLeft);

  /// Adopt already-packed planes (zero-copy wrap used by bitMM2Bit).
  static BitTensor from_planes(StackedBitTensor planes);

  /// `Tensor.to_val()`: decode to an int32 tensor of quantized codes.
  [[nodiscard]] MatrixI32 to_val() const { return planes_.compose(); }

  /// Decode to fp32 using the stored quantization parameters.
  [[nodiscard]] MatrixF to_float() const;

  [[nodiscard]] int bits() const { return planes_.bits(); }
  [[nodiscard]] i64 rows() const { return planes_.rows(); }
  [[nodiscard]] i64 cols() const { return planes_.cols(); }
  [[nodiscard]] const StackedBitTensor& planes() const { return planes_; }
  [[nodiscard]] const QuantParams& qparams() const { return qparams_; }

 private:
  StackedBitTensor planes_;
  QuantParams qparams_{0.0f, 1.0f, 1};
  bool from_float_ = false;
};

/// bitMM2Int: C = A x B with int32 output (quantized-code arithmetic).
/// Runs on `opt.ctx` (backend and counter sink); null is the default
/// context.
MatrixI32 bitMM2Int(const BitTensor& a, const BitTensor& b,
                    const BmmOptions& opt = {});

/// bitMM2Int with a structurally sparse left operand: the 1-bit adjacency
/// rides the tile-CSR path (only stored tiles execute, jumping free) while
/// the right operand stays a dense bit-Tensor — the paper's adjacency x
/// embedding split, with sparsity made structural.
MatrixI32 bitMM2Int(const TileSparseBitMatrix& a, const BitTensor& b,
                    const BmmOptions& opt = {});

/// bitMM2Bit: C = A x B requantized to `bit_c` bits, returned as a left-side
/// BitTensor ready for the next MM (hidden-layer chaining, §4.5). `act` is
/// the elementwise activation the fused epilogue applies before the clamp.
BitTensor bitMM2Bit(const BitTensor& a, const BitTensor& b, int bit_c,
                    const BmmOptions& opt = {},
                    tcsim::Activation act = tcsim::Activation::kIdentity);

}  // namespace qgtc::api
