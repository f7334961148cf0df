// Any-bitwidth matrix multiplication composed from 1-bit BMMs
// (paper §3, Algorithm 1), plus the two system optimisations that act at
// this level:
//
//  * non-zero tile reuse (§4.4): cross-tile reduction keeps a loaded A tile
//    resident while sweeping every bit-plane of the other operand;
//  * inter-layer kernel fusion (§4.5): ReLU / batch-norm / requantization +
//    bit-decomposition run inside the GEMM epilogue so hidden layers hand
//    packed low-bit planes straight to the next layer.
//
// Every entry point executes its tile ops on the substrate backend of the
// caller's ExecutionContext (BmmOptions::ctx; null = process default) and
// draws scratch from that context's per-thread workspace arena.
#pragma once

#include <vector>

#include "bittensor/stacked.hpp"
#include "kernels/bmm.hpp"

namespace qgtc {

/// Figure 6's two reduction orders for aggregation (1-bit A x s-bit X).
enum class ReuseMode {
  kCrossBit,   // (a): one full pass per bit-plane; A tiles re-loaded per bit
  kCrossTile,  // (b): per non-zero A tile, sweep all bit-planes (O(1) loads)
};

/// Fused epilogue applied to each finished 8x8 int32 output tile (§4.5).
struct FusedEpilogue {
  /// Elementwise activation (identity / relu / relu6 / hardswish) applied in
  /// the requantized domain — see tcsim::apply_epilogue for exact semantics.
  tcsim::Activation act = tcsim::Activation::kIdentity;
  /// Per-output-column batch-norm folded to y = x * scale[j] + bias[j]
  /// (Eq. 8 with E/Var/gamma/beta pre-folded by the caller).
  bool use_bn = false;
  std::vector<float> bn_scale;
  std::vector<float> bn_bias;
  /// Requantization right-shift used by the to-bit output path:
  /// out = clamp(acc >> rshift, 0, 2^out_bits - 1). Calibrated per layer.
  int rshift = 0;
};

/// bitMM2Int (paper §5): C = A(s-bit) x B(t-bit) with int32 output.
/// Straightforward Algorithm-1 composition: one shifted BMM pass per
/// (s, t) bit-plane pair.
MatrixI32 bitmm_to_int(const StackedBitTensor& a, const StackedBitTensor& b,
                       const BmmOptions& opt = {});

/// Fused single-pass variant of bitMM2Int: per output tile, all bit-plane
/// pairs and K tiles are reduced locally, then the epilogue (ReLU/BN) runs
/// before the single store. This is the production path for output layers.
MatrixI32 bitmm_fused_int(const StackedBitTensor& a, const StackedBitTensor& b,
                          const FusedEpilogue& epi = {},
                          const BmmOptions& opt = {});

/// In-place variant of bitmm_fused_int writing into caller-provided storage
/// (typically the ExecutionContext workspace's int32_scratch — the unfused
/// fallback path allocates nothing per call). `out` must be a.rows x b.cols;
/// every element is assigned.
void bitmm_fused_int_into(const StackedBitTensor& a, const StackedBitTensor& b,
                          MatrixI32& out, const FusedEpilogue& epi = {},
                          const BmmOptions& opt = {});

/// bitMM2Bit (paper §5): fused any-bit MM whose epilogue requantizes to
/// `out_bits` and bit-decomposes straight into packed planes laid out as the
/// next layer's A operand (kRowMajorK). `out_pad` must be kOperand128 when
/// the result feeds another packed MM (§4.2's hidden-layer padding rule).
/// `out_layout` chooses which side of the next MM the result feeds:
/// kRowMajorK when it becomes the next A operand (GCN hidden layers),
/// kColMajorK when it becomes the next B operand (GIN update-then-aggregate).
StackedBitTensor bitmm_fused_bit(const StackedBitTensor& a,
                                 const StackedBitTensor& b, int out_bits,
                                 const FusedEpilogue& epi = {},
                                 const BmmOptions& opt = {},
                                 PadPolicy out_pad = PadPolicy::kOperand128,
                                 BitLayout out_layout = BitLayout::kRowMajorK);

/// Neighbour aggregation X_new = A_bin x X with selectable reduction order
/// (the Figure 10 ablation). int32 output.
MatrixI32 aggregate_1bit(const BitMatrix& a_bin, const StackedBitTensor& x,
                         ReuseMode mode, const BmmOptions& opt = {});

/// Structurally sparse aggregation: A is a tile-CSR adjacency, so only the
/// stored tiles are ever visited — zero-tile jumping without a flag test or
/// dense scan. Bit-identical to the dense overload; substrate accounting
/// (bmma_ops / tiles_jumped) matches the flag-based jump exactly.
MatrixI32 aggregate_1bit(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         const BmmOptions& opt = {});

/// In-place tile-CSR aggregation writing into caller-provided storage (same
/// contract as bitmm_fused_int_into; used by the unfused fallback path).
void aggregate_1bit_into(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         MatrixI32& out, const BmmOptions& opt = {});

/// Fused aggregation: requantizes X_new to `out_bits` inside the epilogue.
StackedBitTensor aggregate_fused_bit(const BitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi = {},
                                     const BmmOptions& opt = {},
                                     PadPolicy out_pad = PadPolicy::kOperand128);

/// Fused aggregation over a tile-CSR adjacency (structural jumping).
StackedBitTensor aggregate_fused_bit(const TileSparseBitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi = {},
                                     const BmmOptions& opt = {},
                                     PadPolicy out_pad = PadPolicy::kOperand128);

/// Right-shift such that `max_acc` lands inside `out_bits` bits.
int calibrate_rshift(i32 max_acc, int out_bits);

/// Throws if K * (2^s-1) * (2^t-1) could overflow the int32 accumulator.
void check_accumulator_bounds(i64 k, int s_bits, int t_bits);

}  // namespace qgtc
