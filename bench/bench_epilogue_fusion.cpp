// Fused quantized epilogue vs unfused fallback on the Figure 7(a)
// cluster-GCN and 7(b) batched-GIN workloads, swept over batch sizes. The
// fused path requantizes/activates/re-packs inside the tile flush, so it
// must be no slower than the unfused int32-sweep path while producing
// bit-identical logits, the identical tile schedule, and a positive
// int32-bytes-avoided count (the intermediates it never materialised).
//
// Both modes run on one OpenMP thread, each on its own engine, for three
// single-epoch rounds in alternating order; each mode's best epoch is
// compared, so a busy neighbour on a shared host hits both modes alike.
//
// Exit status is the regression gate: non-zero when logits/counters diverge,
// when no int32 bytes were avoided, or when the fused path is slower beyond
// noise.
#include "bench_util.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::bench {
namespace {

struct ModeResult {
  double seconds = 0.0;
  i64 bmma_ops = 0;
  i64 tiles_jumped = 0;
  i64 fused_stages = 0;
  i64 int32_bytes_avoided = 0;
  std::vector<MatrixI32> logits;
};

/// Timed rounds per mode (one epoch each).
constexpr int kRounds = 3;

/// One epoch of `engine`.
ModeResult run_epoch(core::QgtcEngine& engine) {
  ModeResult r;
  const auto stats = engine.run_quantized(1, &r.logits);
  r.seconds = stats.forward_seconds;
  r.bmma_ops = stats.bmma_ops;
  r.tiles_jumped = stats.tiles_jumped;
  r.fused_stages = stats.epilogue_fused_layers;
  r.int32_bytes_avoided = stats.int32_bytes_avoided;
  return r;
}

int run(int argc, char** argv) {
  print_banner("Fused quantized epilogue vs unfused fallback (Fig. 7a/7b workloads)",
               "requantize/activate/re-pack inside the tile flush is "
               "bit-identical and no slower, with zero int32 intermediates");

  const DatasetSpec spec = table1_spec("Proteins", products_scale());
  const Dataset ds = generate_dataset(spec);
  // One thread: the gate compares two code paths, not two thread teams.
  set_num_threads(1);
  // Quick smoke runs carry more timer noise on a loaded CI host; tolerate
  // more apparent slowdown before failing there.
  const double tolerance = quick() ? 1.35 : 1.10;
  std::vector<i64> batch_sizes = {4, 8, 16, 32};
  if (quick()) batch_sizes = {8, 16};

  JsonReport json("epilogue", argc, argv);
  json.meta("workload", "fig7ab_gcn_gin/" + spec.name);
  json.meta("rounds", static_cast<double>(kRounds));
  json.meta("omp_threads", 1.0);
  json.meta("tolerance", tolerance);

  core::TablePrinter table({"model", "batch", "unfused ms", "fused ms",
                            "speedup", "fused stages", "int32 MB avoided",
                            "parity"});
  bool ok = true;
  double worst_ratio = 0.0;
  for (const auto mk :
       {gnn::ModelKind::kClusterGCN, gnn::ModelKind::kBatchedGIN}) {
    for (const i64 batch : batch_sizes) {
      core::EngineConfig cfg;
      cfg.model.kind = mk;
      cfg.model.num_layers = 3;
      cfg.model.in_dim = spec.feature_dim;
      cfg.model.hidden_dim = mk == gnn::ModelKind::kClusterGCN ? 16 : 64;
      cfg.model.out_dim = spec.num_classes;
      cfg.model.feat_bits = 4;
      cfg.model.weight_bits = 4;
      cfg.num_partitions = quick() ? 256 : 1500;
      cfg.batch_size = batch;

      cfg.model.fused_epilogue = false;
      core::QgtcEngine unfused_engine(ds, cfg);
      cfg.model.fused_epilogue = true;
      core::QgtcEngine fused_engine(ds, cfg);
      ModeResult unfused, fused;
      const auto keep_best = [](ModeResult& best, ModeResult r) {
        if (best.logits.empty() || r.seconds < best.seconds) best = std::move(r);
      };
      for (int round = 0; round < kRounds; ++round) {
        const bool fused_first = round % 2 == 1;
        ModeResult first = run_epoch(fused_first ? fused_engine : unfused_engine);
        ModeResult second = run_epoch(fused_first ? unfused_engine : fused_engine);
        keep_best(fused_first ? fused : unfused, std::move(first));
        keep_best(fused_first ? unfused : fused, std::move(second));
      }

      const bool parity = fused.logits == unfused.logits &&
                          fused.bmma_ops == unfused.bmma_ops &&
                          fused.tiles_jumped == unfused.tiles_jumped;
      const bool avoided = fused.int32_bytes_avoided > 0 &&
                           unfused.int32_bytes_avoided == 0 &&
                           fused.fused_stages > 0;
      const double ratio = fused.seconds / unfused.seconds;
      worst_ratio = std::max(worst_ratio, ratio);
      ok = ok && parity && avoided;

      table.add_row(
          {gnn::model_name(mk), std::to_string(batch), ms(unfused.seconds),
           ms(fused.seconds),
           core::TablePrinter::fmt(unfused.seconds / fused.seconds, 2) + "x",
           std::to_string(fused.fused_stages),
           core::TablePrinter::fmt(
               static_cast<double>(fused.int32_bytes_avoided) / 1e6, 2),
           parity && avoided ? "ok" : "MISMATCH"});
      json.add_row(
          {{"model", gnn::model_name(mk)}},
          {{"batch_size", static_cast<double>(batch)},
           {"unfused_ms", unfused.seconds * 1e3},
           {"fused_ms", fused.seconds * 1e3},
           {"speedup", unfused.seconds / fused.seconds},
           {"fused_stages", static_cast<double>(fused.fused_stages)},
           {"int32_bytes_avoided",
            static_cast<double>(fused.int32_bytes_avoided)},
           {"logits_match", fused.logits == unfused.logits ? 1.0 : 0.0},
           {"counters_match",
            fused.bmma_ops == unfused.bmma_ops &&
                    fused.tiles_jumped == unfused.tiles_jumped
                ? 1.0
                : 0.0}});
      std::cerr << "  [done] " << gnn::model_name(mk) << " batch " << batch
                << "\n";
    }
  }
  add_memory_meta(json);
  json.meta("worst_fused_over_unfused", worst_ratio);
  table.print(std::cout);

  if (!ok) {
    std::cout << "\nFAIL: fused/unfused parity or int32-avoidance broken.\n";
    return 1;
  }
  if (worst_ratio > tolerance) {
    std::cout << "\nFAIL: fused path slower than unfused beyond noise ("
              << core::TablePrinter::fmt(worst_ratio, 2) << "x > "
              << core::TablePrinter::fmt(tolerance, 2) << "x allowed).\n";
    return 1;
  }
  std::cout << "\nEpilogue fusion: bit-identical, schedule-identical, and no "
               "slower than the unfused path on every configuration.\n";
  return 0;
}

}  // namespace
}  // namespace qgtc::bench

int main(int argc, char** argv) { return qgtc::bench::run(argc, argv); }
