// Quickstart: the 60-second tour of the QGTC public API.
//
//   1. Quantize fp32 tensors into bit-Tensors (paper §5's Tensor.to_bit).
//   2. Open an api::Session — the per-stream handle that owns the execution
//      context — and multiply with session.mm_int / session.mm_bit
//      (any-bitwidth, tensor-core substrate underneath).
//   3. Decode results with to_val / to_float.
//
// The old free functions bitMM2Int / bitMM2Bit still work (they delegate to
// a process-wide default session); a Session per stream/worker is how a
// caller pins a backend and private counters.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "api/session.hpp"
#include "common/rng.hpp"

int main() {
  using namespace qgtc;

  // Some fp32 data: a 64x256 activation panel and a 256x32 weight panel.
  Rng rng(1);
  MatrixF x(64, 256), w(256, 32);
  for (i64 i = 0; i < x.size(); ++i) x.data()[i] = rng.next_float(0.0f, 1.0f);
  for (i64 i = 0; i < w.size(); ++i) w.data()[i] = rng.next_float(-0.5f, 0.5f);

  // Quantize: X to 3 bits (left operand), W to 2 bits (right operand).
  const auto xq = api::BitTensor::to_bit(x, 3, api::BitTensor::Side::kLeft);
  const auto wq = api::BitTensor::to_bit(w, 2, api::BitTensor::Side::kRight);
  std::cout << "X: " << xq.rows() << "x" << xq.cols() << " @ " << xq.bits()
            << " bits  (scale " << xq.qparams().scale() << ")\n";
  std::cout << "W: " << wq.rows() << "x" << wq.cols() << " @ " << wq.bits()
            << " bits\n";

  // One session per stream/worker: it pins the backend and keeps private
  // substrate counters, like a CUDA stream plus its profiler slot.
  api::Session session;

  // Any-bitwidth MM with int32 output: 3-bit x 2-bit composed from six
  // 1-bit tensor-core BMMs (paper §3.1).
  const MatrixI32 c = session.mm_int(xq, wq);
  std::cout << "session.mm_int -> int32 " << c.rows() << "x" << c.cols()
            << ", C[0,0] = " << c(0, 0) << "\n";

  // Same MM but requantized to 4 bits in the fused epilogue, ready to chain
  // into the next layer without leaving the packed domain (paper §4.5).
  const auto c4 = session.mm_bit(xq, wq, api::MmOut{/*bits=*/4});
  std::cout << "session.mm_bit -> " << c4.bits() << "-bit codes, C4[0,0] = "
            << c4.to_val()(0, 0) << "\n";

  // The session counted every 1-bit tile op it issued: 3x2 bit planes for
  // mm_int plus the mm_bit pass, nothing from other threads.
  std::cout << "session counters: " << session.counters().bmma_ops
            << " tile BMMAs on " << tcsim::backend_name(session.backend())
            << "\n";

  // Round-trip check: quantized codes decode to the fp32 neighbourhood.
  const MatrixF back = xq.to_float();
  std::cout << "max |x - dequant(quant(x))| = " << max_abs_diff(x, back)
            << "  (bounded by one quantization step = " << xq.qparams().scale()
            << ")\n";
  return 0;
}
