// Quickstart: the 60-second tour of the QGTC public API.
//
//   1. Quantize fp32 tensors into bit-Tensors (paper §5's Tensor.to_bit).
//   2. Multiply with bitMM2Int / bitMM2Bit (any-bitwidth, tensor-core
//      substrate underneath) on an ExecutionContext passed as opt.ctx — the
//      per-stream handle that pins a backend and keeps private counters.
//   3. Decode results with to_val / to_float.
//
// With no opt.ctx the calls run on the process-wide default context.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "api/bit_tensor_api.hpp"
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

  // One context per stream/worker: it pins the backend and keeps private
  // substrate counters, like a CUDA stream plus its profiler slot.
  const tcsim::ExecutionContext ctx(tcsim::default_backend());
  BmmOptions opt;
  opt.ctx = &ctx;

  // Any-bitwidth MM with int32 output: 3-bit x 2-bit composed from six
  // 1-bit tensor-core BMMs (paper §3.1).
  const MatrixI32 c = api::bitMM2Int(xq, wq, opt);
  std::cout << "bitMM2Int -> int32 " << c.rows() << "x" << c.cols()
            << ", C[0,0] = " << c(0, 0) << "\n";

  // Same MM but requantized to 4 bits in the fused epilogue, ready to chain
  // into the next layer without leaving the packed domain (paper §4.5).
  const auto c4 = api::bitMM2Bit(xq, wq, /*bit_c=*/4, opt);
  std::cout << "bitMM2Bit -> " << c4.bits() << "-bit codes, C4[0,0] = "
            << c4.to_val()(0, 0) << "\n";

  // The context counted every 1-bit tile op it ran: 3x2 bit planes for
  // bitMM2Int plus the bitMM2Bit pass, nothing from other threads.
  std::cout << "context counters: " << ctx.counters().bmma_ops
            << " tile BMMAs on " << tcsim::backend_name(ctx.backend_kind())
            << "\n";

  // Round-trip check: quantized codes decode to the fp32 neighbourhood.
  const MatrixF back = xq.to_float();
  std::cout << "max |x - dequant(quant(x))| = " << max_abs_diff(x, back)
            << "  (bounded by one quantization step = " << xq.qparams().scale()
            << ")\n";
  return 0;
}
