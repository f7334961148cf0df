#include "api/bit_tensor_api.hpp"

#include <algorithm>

namespace qgtc::api {

namespace {
BitLayout layout_for(BitTensor::Side side) {
  return side == BitTensor::Side::kLeft ? BitLayout::kRowMajorK
                                        : BitLayout::kColMajorK;
}
}  // namespace

BitTensor BitTensor::to_bit(const MatrixF& dense, int nbits, Side side) {
  BitTensor t;
  t.qparams_ = quant_params_from_data(dense, nbits);
  t.planes_ = StackedBitTensor::quantize(dense, t.qparams_, layout_for(side),
                                         PadPolicy::kTile8);
  t.from_float_ = true;
  return t;
}

BitTensor BitTensor::from_quantized(const MatrixI32& q, int nbits, Side side) {
  const i32 qmax = static_cast<i32>((u32{1} << nbits) - 1);
  for (i64 i = 0; i < q.size(); ++i) {
    QGTC_CHECK(q.data()[i] >= 0 && q.data()[i] <= qmax,
               "quantized code out of range for the requested bitwidth");
  }
  BitTensor t;
  t.qparams_ = QuantParams{0.0f, static_cast<float>(qmax + 1), nbits};
  t.planes_ = StackedBitTensor::decompose(q, nbits, layout_for(side),
                                          PadPolicy::kTile8);
  return t;
}

BitTensor BitTensor::from_planes(StackedBitTensor planes) {
  BitTensor t;
  t.qparams_ = QuantParams{
      0.0f, static_cast<float>(u32{1} << planes.bits()), planes.bits()};
  t.planes_ = std::move(planes);
  return t;
}

MatrixF BitTensor::to_float() const {
  return dequantize_matrix(planes_.compose(), qparams_);
}

MatrixI32 bitMM2Int(const BitTensor& a, const BitTensor& b,
                    const BmmOptions& opt) {
  QGTC_CHECK(a.planes().layout() == BitLayout::kRowMajorK,
             "bitMM2Int: A must be a left-side BitTensor");
  QGTC_CHECK(b.planes().layout() == BitLayout::kColMajorK,
             "bitMM2Int: B must be a right-side BitTensor");
  return bitmm_to_int(a.planes(), b.planes(), opt);
}

MatrixI32 bitMM2Int(const TileSparseBitMatrix& a, const BitTensor& b,
                    const BmmOptions& opt) {
  QGTC_CHECK(b.planes().layout() == BitLayout::kColMajorK,
             "bitMM2Int: B must be a right-side BitTensor");
  // The sparse operand is 1-bit by construction; cross-tile reduction keeps
  // each stored tile resident across every B bit-plane (§4.4).
  return aggregate_1bit(a, b.planes(), ReuseMode::kCrossTile, opt);
}

BitTensor bitMM2Bit(const BitTensor& a, const BitTensor& b, int bit_c,
                    const BmmOptions& opt, tcsim::Activation act) {
  QGTC_CHECK(a.planes().layout() == BitLayout::kRowMajorK,
             "bitMM2Bit: A must be a left-side BitTensor");
  QGTC_CHECK(b.planes().layout() == BitLayout::kColMajorK,
             "bitMM2Bit: B must be a right-side BitTensor");
  // Requantize with a data-independent shift derived from the worst-case
  // accumulator magnitude, so the API is one-shot (no calibration pass).
  const i64 k = a.cols();
  const i64 max_acc = k * ((i64{1} << a.bits()) - 1) * ((i64{1} << b.bits()) - 1);
  FusedEpilogue epi;
  epi.act = act;
  epi.rshift = calibrate_rshift(
      static_cast<i32>(std::min<i64>(max_acc, INT32_MAX)), bit_c);
  StackedBitTensor out = bitmm_fused_bit(a.planes(), b.planes(), bit_c, epi,
                                         opt, PadPolicy::kTile8,
                                         BitLayout::kRowMajorK);
  return BitTensor::from_planes(std::move(out));
}

}  // namespace qgtc::api
