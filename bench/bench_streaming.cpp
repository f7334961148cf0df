// Streaming pipeline vs precomputed epoch on the Fig. 7a cluster-GCN
// workload: the streaming executor must hold only O(pipeline_depth) batches
// resident (peak prepared bytes ~ depth/num_batches of the precomputed
// engine) while matching its counters bit-for-bit, at epoch time at parity
// or better once prepare and packed transfer overlap compute. Also reports
// the overlap accounting: total modelled wire time vs the share not hidden
// behind compute (exposed).
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::bench {
namespace {

struct ModeResult {
  double seconds = 0.0;
  double build_seconds = 0.0;  // engine construction (precomputed: includes
                               // materialising the whole epoch, untimed prep)
  i64 bmma_ops = 0;
  i64 tiles_jumped = 0;
  i64 peak_prepared_bytes = 0;
  i64 packed_bytes = 0;
  double wire_ms = 0.0;
  double exposed_ms = 0.0;
  i64 batches = 0;
  // Streaming only: per-stage busy/stall attribution (averaged over rounds).
  core::StageTimes stages;
};

ModeResult run_mode(const Dataset& ds, core::EngineConfig cfg, int rounds) {
  Timer build;
  core::QgtcEngine engine(ds, cfg);
  const double build_seconds = build.seconds();
  const auto stats = engine.run_quantized(rounds);
  ModeResult r;
  r.build_seconds = build_seconds;
  r.seconds = stats.forward_seconds;
  r.bmma_ops = stats.bmma_ops;
  r.tiles_jumped = stats.tiles_jumped;
  r.peak_prepared_bytes = stats.peak_prepared_bytes;
  r.packed_bytes = stats.packed_bytes;
  r.wire_ms = stats.packed_transfer_seconds * 1e3;
  r.exposed_ms = stats.exposed_transfer_seconds * 1e3;
  r.batches = stats.batches;
  r.stages = stats.stage_breakdown;
  return r;
}

int run(int argc, char** argv) {
  print_banner("Streaming epoch pipeline vs precomputed batches (Fig. 7a workload)",
               "bounded-memory prepare/ship/compute overlap holds "
               "~O(pipeline_depth) batches resident at epoch parity, "
               "bit-identical counters (§4.6 deployment pipeline)");

  const DatasetSpec spec = table1_spec("Proteins", products_scale());
  const Dataset ds = generate_dataset(spec);
  const int rounds = quick() ? 1 : 3;
  std::vector<int> depths = {1, 2, 4};
  if (quick()) depths = {2};

  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = spec.num_classes;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = quick() ? 256 : 1500;
  // Enough batches per epoch that the in-flight window (~2*depth + stage
  // workers, see pipeline.hpp) is a small fraction of the epoch — that
  // fraction IS the memory claim being measured.
  cfg.batch_size = quick() ? 4 : 16;
  // Split the host between the compute stage and the prepare stage (capped:
  // the window bound must not scale with the host's core count).
  const int stage_threads = std::clamp(num_threads() / 2, 1, 4);
  cfg.inter_batch_threads = stage_threads;

  JsonReport json("streaming", argc, argv);
  json.meta("workload", "fig7a_cluster_gcn/" + spec.name);
  json.meta("rounds", static_cast<double>(rounds));
  json.meta("batch_size", static_cast<double>(cfg.batch_size));
  // Overlap needs cores: with one host thread the prepare stage serialises
  // with compute and the streaming epoch pays the full prepare cost inline
  // (the precomputed row pays it untimed, at construction — see build ms).
  json.meta("host_threads", static_cast<double>(num_threads()));
  json.meta("stage_threads", static_cast<double>(stage_threads));

  const ModeResult pre = run_mode(ds, cfg, rounds);
  std::cerr << "  [done] precomputed (" << pre.batches << " batches)\n";

  core::TablePrinter table({"mode", "ms/epoch", "vs precomp", "build ms",
                            "peak MB", "peak ratio", "wire ms", "exposed ms",
                            "counters"});
  table.add_row({"precomputed", ms(pre.seconds), "1.00x", ms(pre.build_seconds),
                 core::TablePrinter::fmt(pre.peak_prepared_bytes / 1e6, 2),
                 "100.0%", "post-hoc", "-", "ref"});
  json.add_row({{"mode", "precomputed"}},
               {{"ms_per_epoch", pre.seconds * 1e3},
                {"build_ms", pre.build_seconds * 1e3},
                {"peak_prepared_bytes", static_cast<double>(pre.peak_prepared_bytes)},
                {"peak_ratio", 1.0},
                {"batches", static_cast<double>(pre.batches)},
                {"bmma_ops", static_cast<double>(pre.bmma_ops)}});

  bool counters_match = true;
  bool memory_bounded = true;
  for (const int depth : depths) {
    core::EngineConfig scfg = cfg;
    scfg.mode = core::RunMode::streaming_pipeline(depth, stage_threads);
    const ModeResult s = run_mode(ds, scfg, rounds);
    const bool match =
        s.bmma_ops == pre.bmma_ops && s.tiles_jumped == pre.tiles_jumped;
    counters_match = counters_match && match;
    const double peak_ratio = static_cast<double>(s.peak_prepared_bytes) /
                              static_cast<double>(pre.peak_prepared_bytes);
    // The acceptance bar: depth-proportional residency, ≤ 50% at depth 2.
    if (depth <= 2) memory_bounded = memory_bounded && peak_ratio <= 0.5;

    table.add_row({"streaming d=" + std::to_string(depth), ms(s.seconds),
                   core::TablePrinter::fmt(pre.seconds / s.seconds, 2) + "x",
                   ms(s.build_seconds),
                   core::TablePrinter::fmt(s.peak_prepared_bytes / 1e6, 2),
                   core::TablePrinter::fmt_pct(peak_ratio, 1),
                   core::TablePrinter::fmt(s.wire_ms, 2),
                   core::TablePrinter::fmt(s.exposed_ms, 2),
                   match ? "match" : "MISMATCH"});
    json.add_row({{"mode", "streaming"}},
                 {{"pipeline_depth", static_cast<double>(depth)},
                  {"ms_per_epoch", s.seconds * 1e3},
                  {"build_ms", s.build_seconds * 1e3},
                  {"peak_prepared_bytes", static_cast<double>(s.peak_prepared_bytes)},
                  {"peak_ratio", peak_ratio},
                  {"wire_ms", s.wire_ms},
                  {"exposed_ms", s.exposed_ms},
                  {"packed_bytes", static_cast<double>(s.packed_bytes)},
                  {"counters_match", match ? 1.0 : 0.0},
                  // Per-stage busy/stall attribution (ms per epoch): the
                  // stall columns say which stage the depth knob starves.
                  {"prepare_busy_ms", s.stages.prepare.busy_seconds * 1e3},
                  {"prepare_stall_ms", s.stages.prepare.stall_seconds * 1e3},
                  {"ship_busy_ms", s.stages.ship.busy_seconds * 1e3},
                  {"ship_stall_ms", s.stages.ship.stall_seconds * 1e3},
                  {"compute_busy_ms", s.stages.compute.busy_seconds * 1e3},
                  {"compute_stall_ms", s.stages.compute.stall_seconds * 1e3}});
    std::cerr << "  [done] streaming depth " << depth
              << " (stalls ms p/s/c: "
              << core::TablePrinter::fmt(s.stages.prepare.stall_seconds * 1e3, 1)
              << "/" << core::TablePrinter::fmt(s.stages.ship.stall_seconds * 1e3, 1)
              << "/"
              << core::TablePrinter::fmt(s.stages.compute.stall_seconds * 1e3, 1)
              << ")\n";
  }

  bool overhead_gate_ok = true;
  // ----------------------------------------------- tracing overhead gate
  // The observability claim: instrumentation compiled in and *disabled* is
  // one relaxed atomic load per span site (within run-to-run noise), and
  // *enabled* tracing stays under 5% epoch overhead. Three runs of the same
  // depth-2 streaming config: disabled, disabled again (noise floor),
  // enabled. The allowance is max(5%, 2x measured noise + 5 ms) so a noisy
  // CI host widens the gate rather than flaking it.
  {
    core::EngineConfig scfg = cfg;
    scfg.mode = core::RunMode::streaming_pipeline(2, stage_threads);
    const double off1 = run_mode(ds, scfg, rounds).seconds;
    const double off2 = run_mode(ds, scfg, rounds).seconds;
    obs::SpanSink::instance().enable();
    const double on = run_mode(ds, scfg, rounds).seconds;
    obs::SpanSink::instance().disable();
    const i64 traced_spans = static_cast<i64>(obs::SpanSink::instance().span_count());

    const double off = std::min(off1, off2);
    const double noise = std::abs(off1 - off2);
    const double overhead = on - off;
    const double allowance = std::max(0.05 * off, 2.0 * noise + 5e-3);
    const bool overhead_ok = overhead <= allowance && traced_spans > 0;
    std::cout << "\nTracing overhead (streaming d=2): disabled " << ms(off1)
              << "/" << ms(off2) << " ms, enabled " << ms(on) << " ms ("
              << traced_spans << " spans) -> overhead " << ms(overhead)
              << " ms, allowance " << ms(allowance) << " ms: "
              << (overhead_ok ? "OK" : "EXCEEDED") << "\n";
    json.meta("trace_off_ms", off * 1e3);
    json.meta("trace_off_noise_ms", noise * 1e3);
    json.meta("trace_on_ms", on * 1e3);
    json.meta("trace_overhead_ms", overhead * 1e3);
    json.meta("trace_allowance_ms", allowance * 1e3);
    json.meta("trace_spans", static_cast<double>(traced_spans));
    json.meta("trace_overhead_ok", overhead_ok ? 1.0 : 0.0);
    overhead_gate_ok = overhead_ok;
  }
  // Process-level peak RSS is monotonic over the whole run (the precomputed
  // baseline sets the high-water); per-mode memory is peak_prepared_bytes.
  add_memory_meta(json);
  table.print(std::cout);
  std::cout << (counters_match
                    ? "\nSchedule parity: bmma_ops and tiles_jumped identical "
                      "between streaming and precomputed epochs.\n"
                    : "\nWARNING: counter mismatch between streaming and "
                      "precomputed epochs!\n");
  std::cout << (memory_bounded
                    ? "Memory bound holds: peak resident <= 50% of "
                      "precomputed at depth <= 2.\n"
                    : "WARNING: streaming peak resident exceeded 50% of "
                      "precomputed at depth <= 2!\n");
  std::cout << (overhead_gate_ok
                    ? "Tracing overhead gate holds: disabled within noise, "
                      "enabled within the 5% allowance.\n"
                    : "WARNING: tracing overhead gate failed!\n");
  return counters_match && memory_bounded && overhead_gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace qgtc::bench

int main(int argc, char** argv) { return qgtc::bench::run(argc, argv); }
