// Backend sweep over the Fig. 7(a) cluster-GCN workload: quantized epoch
// latency for every substrate backend (scalar vs blocked) and for
// single- vs multi-worker inter-batch execution, verifying along the way
// that op counters and logits are invariant to the execution setup.
//
//   bench_backend_sweep [--json]
//
// Env knobs as bench_util.hpp; QGTC_SWEEP_THREADS overrides the worker
// count tried for the parallel rows (default: the host's OpenMP width).
#include <cmath>

#include "bench_util.hpp"
#include "parallel/parallel_for.hpp"

int main(int argc, char** argv) {
  using namespace qgtc;
  using core::TablePrinter;
  using tcsim::BackendKind;

  bench::print_banner(
      "Backend sweep — Fig. 7(a) cluster-GCN workload",
      "blocked substrate beats scalar; inter-batch workers beat "
      "single-threaded epochs at equal op counts");

  bench::JsonReport json("backend_sweep", argc, argv);
  const int par_threads = static_cast<int>(
      env_i64("QGTC_SWEEP_THREADS", std::max(num_threads(), 2)));
  const int rounds = bench::quick() ? 1 : 2;
  json.meta("inter_batch_threads_parallel", static_cast<double>(par_threads));
  json.meta("simd_active", tcsim::simd_active() ? 1.0 : 0.0);

  TablePrinter table({"Dataset", "Backend", "Workers", "ms/epoch",
                      "vs scalar", "tile MMAs", "tiles jumped"});

  for (const auto& spec : bench::bench_datasets()) {
    const Dataset ds = generate_dataset(spec);
    core::EngineConfig cfg;
    cfg.model.kind = gnn::ModelKind::kClusterGCN;
    cfg.model.num_layers = 3;
    cfg.model.in_dim = spec.feature_dim;
    cfg.model.hidden_dim = 16;  // the paper's cluster-GCN setting
    cfg.model.out_dim = spec.num_classes;
    cfg.model.feat_bits = 4;
    cfg.model.weight_bits = 4;
    cfg.num_partitions = 1500;
    cfg.batch_size = 16;
    core::QgtcEngine engine(ds, cfg);

    // Reference logits + counters from the scalar single-thread run.
    engine.set_execution(BackendKind::kScalar, 1);
    const core::EngineStats base = engine.run_quantized(rounds);
    const auto& bd0 = *engine.batch_data().front();
    const tcsim::ExecutionContext scalar_ctx(BackendKind::kScalar);
    const MatrixI32 ref_logits = engine.model().forward_prepared(
        bd0.adj_tiles, bd0.x_planes, nullptr, &scalar_ctx);

    struct Config {
      BackendKind kind;
      int workers;
    };
    std::vector<Config> configs = {{BackendKind::kScalar, 1},
                                   {BackendKind::kBlocked, 1},
                                   {BackendKind::kBlocked, par_threads}};
    for (const auto& c : configs) {
      engine.set_execution(c.kind, c.workers);
      const core::EngineStats s =
          (c.kind == BackendKind::kScalar && c.workers == 1)
              ? base
              : engine.run_quantized(rounds);

      bool invariant = (s.bmma_ops == base.bmma_ops) &&
                       (s.tiles_jumped == base.tiles_jumped);
      const tcsim::ExecutionContext ctx(c.kind);
      invariant = invariant &&
                  engine.model().forward_prepared(bd0.adj_tiles, bd0.x_planes,
                                                  nullptr, &ctx) == ref_logits;
      if (!invariant) {
        std::cerr << "INVARIANCE VIOLATION: " << s.backend << " x"
                  << s.inter_batch_threads << " diverged from scalar\n";
      }

      const double speedup = base.forward_seconds / s.forward_seconds;
      table.add_row({spec.name, s.backend,
                     std::to_string(s.inter_batch_threads),
                     bench::ms(s.forward_seconds),
                     TablePrinter::fmt(speedup, 2) + "x",
                     std::to_string(s.bmma_ops),
                     std::to_string(s.tiles_jumped)});
      json.add_row({{"dataset", spec.name}, {"backend", s.backend}},
                   {{"workers", static_cast<double>(s.inter_batch_threads)},
                    {"ms_per_epoch", s.forward_seconds * 1e3},
                    {"speedup_vs_scalar", speedup},
                    {"bmma_ops", static_cast<double>(s.bmma_ops)},
                    {"tiles_jumped", static_cast<double>(s.tiles_jumped)},
                    {"invariant", invariant ? 1.0 : 0.0}});
    }
    std::cerr << "  [done] " << spec.name << "\n";
  }

  table.print(std::cout);
  std::cout << "\n(kBlocked runs the best vector micro-kernel this CPU "
               "supports; the last row adds inter-batch workers on top. Op "
               "counts and logits are asserted identical across all "
               "configurations.)\n";
  return 0;
}
