// Batched GIN inference — the paper's second benchmark model (3 layers,
// hidden 64, update-before-aggregate). Sweeps bitwidths on one dataset and
// prints the latency curve, demonstrating the runtime/accuracy knob the
// paper's any-bitwidth support exists for.
//
// Build & run:  ./build/examples/batched_gin_inference
#include <iostream>

#include "api/bit_tensor_api.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/stats.hpp"

int main() {
  using namespace qgtc;

  std::cout << "Generating PPI-scale dataset (Table 1)...\n";
  const Dataset ds = generate_dataset(table1_spec("PPI"));

  core::TablePrinter table({"config", "ms/epoch", "vs fp32"});
  double fp32_s = 0.0;
  for (const int bits : {0, 2, 4, 8}) {  // 0 = fp32 reference row
    core::EngineConfig cfg;
    cfg.model.kind = gnn::ModelKind::kBatchedGIN;
    cfg.model.num_layers = 3;
    cfg.model.in_dim = ds.spec.feature_dim;
    cfg.model.hidden_dim = 64;
    cfg.model.out_dim = ds.spec.num_classes;
    cfg.model.feat_bits = bits == 0 ? 8 : bits;
    cfg.model.weight_bits = bits == 0 ? 8 : bits;
    cfg.num_partitions = 1500;
    cfg.batch_size = 16;
    core::QgtcEngine engine(ds, cfg);

    if (bits == 0) {
      fp32_s = engine.run_fp32(2).forward_seconds;
      table.add_row({"DGL-substitute fp32",
                     core::TablePrinter::fmt(fp32_s * 1e3, 1), "1.00x"});
      continue;
    }
    const double s = engine.run_quantized(2).forward_seconds;
    table.add_row({"QGTC " + std::to_string(bits) + "-bit",
                   core::TablePrinter::fmt(s * 1e3, 1),
                   core::TablePrinter::fmt(fp32_s / s, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nGIN updates before aggregating (paper §6.1), which raises the\n"
               "computation-to-communication ratio and widens QGTC's margin.\n";

  // Under the hood each GIN layer is one bitMM2Bit call: an any-bitwidth MM
  // whose epilogue requantizes straight back into packed codes. An
  // ExecutionContext passed as opt.ctx is the per-worker handle for exactly
  // that — here one update step of a 64-node batch, counted in isolation.
  Rng rng(7);
  MatrixF h(64, 64), w(64, 64);
  for (i64 i = 0; i < h.size(); ++i) h.data()[i] = rng.next_float(0.0f, 1.0f);
  for (i64 i = 0; i < w.size(); ++i) w.data()[i] = rng.next_float(-0.5f, 0.5f);
  const tcsim::ExecutionContext ctx(tcsim::default_backend());
  BmmOptions opt;
  opt.ctx = &ctx;
  const auto hq = api::BitTensor::to_bit(h, 4, api::BitTensor::Side::kLeft);
  const auto wq = api::BitTensor::to_bit(w, 4, api::BitTensor::Side::kRight);
  const auto next =
      api::bitMM2Bit(hq, wq, /*bit_c=*/4, opt, tcsim::Activation::kRelu);
  std::cout << "\nOne GIN update via bitMM2Bit: " << next.rows() << "x"
            << next.cols() << " @ " << next.bits() << "-bit, "
            << ctx.counters().bmma_ops << " tile BMMAs on "
            << tcsim::backend_name(ctx.backend_kind()) << ".\n";
  return 0;
}
