// qgtc_cli — command-line driver for the full pipeline, the "run my own
// setting" entry point a downstream user reaches for first.
//
//   qgtc_cli --dataset ogbn-arxiv --model gcn --bits 4 \
//            [--partitions N | --autotune] [--batch B] [--layers L]
//            [--hidden H] [--rounds R] [--backend scalar|blocked]
//            [--threads T]
//            [--streaming] [--pipeline-depth D] [--prepare-threads P]
//            [--serve] [--qps Q] [--requests N] [--fanout F]
//            [--trace-out trace.json] [--metrics]
//            [--save-dataset file.bin] [--load-dataset file.bin]
//
// Prints epoch latency for the quantized and fp32 paths, substrate
// counters, zero-tile stats, transfer accounting (including the per-run
// nonzero-tile ratio and the tile-CSR adjacency bytes shipped), and memory
// accounting (peak prepared bytes + process peak RSS). --autotune picks
// partitions, batch size and streaming/pipeline-depth from the device
// profile; explicit flags always win. Numeric flags must parse completely,
// worker and depth counts must be at least 1, --cache-budget-mb and
// --fanout at least 0, and --model must be gcn or gin. Bad input, and any
// error the run itself raises (an unknown dataset, --rounds 0), prints an
// `error:` line and exits 1.
//
// --serve skips the offline epochs and stands up the online serving layer
// (core::ServingEngine) behind an open-loop Poisson client: --qps offered
// load, --requests total requests, --fanout ego-graph hops per request.
// Reports p50/p99/p99.9 latency, sustained QPS and micro-batch coalescing;
// with --autotune the serving policy comes from the latency-objective
// profile.
//
// Observability (both modes): --trace-out FILE enables the always-on span
// tracer and writes a Chrome trace-event JSON (load in chrome://tracing or
// ui.perfetto.dev) covering prepare/ship/compute stage bodies, queue stalls,
// batcher coalesce windows and request lifecycles; --metrics dumps the
// counter/gauge/histogram registry (request latency, batch occupancy) on
// exit. Streaming and serving runs also print per-stage busy/stall rows —
// the stall attribution that says which stage to staff or deepen.
#include <charconv>
#include <iostream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/mem.hpp"
#include "core/autotune.hpp"
#include "core/engine.hpp"
#include "core/serving.hpp"
#include "core/stats.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/dataset_store.hpp"

namespace {

struct Args {
  std::string dataset = "Proteins";
  std::string model = "gcn";
  int bits = 4;
  qgtc::i64 partitions = 1500;
  qgtc::i64 batch = 16;
  int layers = 3;
  qgtc::i64 hidden = 16;
  int rounds = 2;
  bool autotune = false;
  bool streaming = false;
  int pipeline_depth = 0;   // 0 = unset (engine default, or autotuned)
  int prepare_threads = 0;  // 0 = unset
  std::string backend;  // empty = engine default (QGTC_BACKEND or blocked)
  int threads = 0;      // 0 = unset (engine default, or autotuned)
  int fuse_epilogue = -1;   // -1 = unset, 0 = --no-fuse-epilogue, 1 = --fuse-epilogue
  std::string save_path;
  std::string load_path;
  // Out-of-core store + pinned prepared batches.
  std::string store_path;        // --store DIR: run off a mmap'd store
  std::string write_store_path;  // --write-store DIR: export then continue
  qgtc::i64 cache_budget_mb = 0; // --cache-budget-mb N: streaming pin budget
  // --serve: online micro-batching server + open-loop Poisson client.
  bool serve = false;
  double qps = 200.0;
  qgtc::i64 requests = 64;
  int fanout = 1;
  // Observability surface: span trace export + metrics registry dump.
  std::string trace_out;
  bool metrics = false;
};

void usage() {
  std::cout << "usage: qgtc_cli [--dataset NAME] [--model gcn|gin]\n"
               "  [--bits B] [--partitions N] [--batch B] [--layers L]\n"
               "  [--hidden H] [--rounds R] [--autotune]\n"
               "  [--streaming] [--pipeline-depth D] [--prepare-threads P]\n"
               "  [--backend scalar|blocked] [--threads T]\n"
               "  [--fuse-epilogue|--no-fuse-epilogue]\n"
               "  [--save-dataset F] [--load-dataset F]\n"
               "  [--store DIR] [--write-store DIR] [--cache-budget-mb N]\n"
               "  [--serve] [--qps Q] [--requests N] [--fanout F]\n"
               "  [--trace-out FILE] [--metrics]\n"
               "datasets: Proteins artist BlogCatalog PPI ogbn-arxiv "
               "ogbn-products\n"
               "--trace-out FILE  enable span tracing, write Chrome "
               "trace-event JSON\n"
               "                  (chrome://tracing / ui.perfetto.dev) on "
               "exit\n"
               "--metrics         dump the counter/histogram registry on "
               "exit\n"
               "--store DIR       run out-of-core off a mmap'd store "
               "directory\n"
               "--write-store DIR export the dataset as a store directory\n"
               "--cache-budget-mb N  MB of prepared batches a streaming "
               "run may pin (0 = none; not with --serve)\n";
}

/// Parses the whole of `text` as a number of type T, or throws
/// invalid_argument naming the flag ("--threads expects an integer, got
/// 'abc'"). Trailing characters and out-of-range values are rejected too.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    const char* what =
        std::is_integral_v<T> ? " expects an integer" : " expects a number";
    throw std::invalid_argument(flag + what + ", got '" + text + "'");
  }
  return value;
}

/// parse_number, then rejects values below `min` ("--threads must be >= 1,
/// got '0'").
template <typename T>
T parse_at_least(const std::string& flag, const std::string& text, T min) {
  const T value = parse_number<T>(flag, text);
  if (value < min) {
    throw std::invalid_argument(flag + " must be >= " + std::to_string(min) +
                                ", got '" + text + "'");
  }
  return value;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    auto next_int = [&] { return parse_number<int>(flag, next()); };
    auto next_i64 = [&] { return parse_number<qgtc::i64>(flag, next()); };
    auto next_at_least = [&](auto min) {
      return parse_at_least(flag, next(), min);
    };
    if (flag == "--dataset") a.dataset = next();
    else if (flag == "--model") a.model = next();
    else if (flag == "--bits") a.bits = next_int();
    else if (flag == "--partitions") a.partitions = next_i64();
    else if (flag == "--batch") a.batch = next_i64();
    else if (flag == "--layers") a.layers = next_int();
    else if (flag == "--hidden") a.hidden = next_i64();
    else if (flag == "--rounds") a.rounds = next_int();
    else if (flag == "--autotune") a.autotune = true;
    else if (flag == "--streaming") a.streaming = true;
    else if (flag == "--pipeline-depth") a.pipeline_depth = next_at_least(1);
    else if (flag == "--prepare-threads") a.prepare_threads = next_at_least(1);
    else if (flag == "--backend") a.backend = next();
    else if (flag == "--threads") a.threads = next_at_least(1);
    else if (flag == "--fuse-epilogue") a.fuse_epilogue = 1;
    else if (flag == "--no-fuse-epilogue") a.fuse_epilogue = 0;
    else if (flag == "--serve") a.serve = true;
    else if (flag == "--trace-out") a.trace_out = next();
    else if (flag == "--metrics") a.metrics = true;
    else if (flag == "--qps") a.qps = parse_number<double>(flag, next());
    else if (flag == "--requests") a.requests = next_i64();
    else if (flag == "--fanout") a.fanout = next_at_least(0);
    else if (flag == "--save-dataset") a.save_path = next();
    else if (flag == "--load-dataset") a.load_path = next();
    else if (flag == "--store") a.store_path = next();
    else if (flag == "--write-store") a.write_store_path = next();
    else if (flag == "--cache-budget-mb") a.cache_budget_mb = next_at_least(qgtc::i64{0});
    else if (flag == "--help" || flag == "-h") { usage(); return false; }
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  if (a.model != "gcn" && a.model != "gin") {
    throw std::invalid_argument("--model expects gcn or gin, got '" + a.model +
                                "'");
  }
  return true;
}

/// Everything after argument parsing: load or generate the dataset, then
/// serve or run the offline epochs and print the tables.
int run(const Args& args) {
  using namespace qgtc;
  // Tracing is enabled before any engine work so calibration and the first
  // epoch land in the trace too; export + metrics dump run after the tables.
  if (!args.trace_out.empty()) obs::SpanSink::instance().enable();
  const auto flush_observability = [&args] {
    if (!args.trace_out.empty()) {
      obs::SpanSink::instance().write_chrome_trace(args.trace_out);
      std::cout << "Wrote " << obs::SpanSink::instance().span_count()
                << " spans to " << args.trace_out << "\n";
    }
    if (args.metrics) obs::MetricsRegistry::instance().print(std::cout);
  };
  // Renders a StageBreakdown as "busy/stall" milliseconds.
  const auto stage_row = [](const obs::StageBreakdown& s) {
    return core::TablePrinter::fmt(s.busy_seconds * 1e3, 1) + "/" +
           core::TablePrinter::fmt(s.stall_seconds * 1e3, 1);
  };

  Dataset ds;
  std::unique_ptr<store::DatasetStore> dstore;
  if (!args.store_path.empty()) {
    std::cout << "Opening dataset store " << args.store_path
              << " (out-of-core)...\n";
    dstore = std::make_unique<store::DatasetStore>(
        store::DatasetStore::open(args.store_path));
  } else if (!args.load_path.empty()) {
    std::cout << "Loading dataset from " << args.load_path << "...\n";
    ds = io::load_dataset_file(args.load_path);
  } else {
    std::cout << "Generating " << args.dataset << " (Table 1 SBM stand-in)...\n";
    ds = generate_dataset(table1_spec(args.dataset));
  }
  if (!args.save_path.empty() && !dstore) {
    io::save_dataset_file(args.save_path, ds);
    std::cout << "Saved dataset to " << args.save_path << "\n";
  }
  if (!args.write_store_path.empty() && !dstore) {
    io::save_dataset_store(args.write_store_path, ds);
    std::cout << "Wrote dataset store to " << args.write_store_path << "\n";
  }
  const DatasetSpec& spec = dstore ? dstore->spec() : ds.spec;

  core::EngineConfig cfg;
  cfg.model.kind = args.model == "gin" ? gnn::ModelKind::kBatchedGIN
                                       : gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = args.layers;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.hidden_dim = args.hidden;
  cfg.model.out_dim = spec.num_classes;
  cfg.model.feat_bits = args.bits;
  cfg.model.weight_bits = args.bits;
  cfg.num_partitions = args.partitions;
  cfg.batch_size = args.batch;
  if (args.autotune) {
    const auto tuned = core::generate_runtime_config(spec, cfg.model);
    core::apply(tuned, cfg);
    std::cout << "Autotuned: " << cfg.num_partitions << " partitions, batch "
              << cfg.batch_size << ", " << cfg.inter_batch_threads
              << " inter-batch threads (~"
              << tuned.batch_bytes_estimate / 1000000 << " MB/batch), "
              << (cfg.mode.streaming() ? "streaming (depth " +
                                      std::to_string(cfg.mode.pipeline_depth) + ")"
                                : "precomputed")
              << " epoch (~" << tuned.epoch_bytes_estimate / 1000000
              << " MB materialised)\n";
  }
  // Explicit flags beat both the defaults and the autotuner.
  if (args.streaming) cfg.mode.epoch = core::RunMode::Epoch::kStreaming;
  if (args.pipeline_depth > 0) cfg.mode.pipeline_depth = args.pipeline_depth;
  if (args.prepare_threads > 0) cfg.mode.prepare_threads = args.prepare_threads;
  if (args.fuse_epilogue >= 0) cfg.model.fused_epilogue = args.fuse_epilogue != 0;
  if (!args.backend.empty()) cfg.backend = tcsim::parse_backend(args.backend);
  if (args.threads > 0) cfg.inter_batch_threads = args.threads;
  if (args.cache_budget_mb > 0) {
    cfg.cache_budget_bytes = args.cache_budget_mb << 20;
  }

  if (args.serve) {
    // Online serving: micro-batching server + open-loop Poisson client.
    // --autotune switches the tuner to the latency objective and adopts its
    // serving policy; explicit worker flags still win.
    core::ServingPolicy policy;
    if (args.autotune) {
      const auto tuned = core::generate_runtime_config(
          spec, cfg.model, {}, core::TuneObjective::kLatency);
      policy = tuned.serving;
    }
    if (args.prepare_threads > 0) policy.prepare_workers = args.prepare_threads;
    if (args.threads > 0) policy.compute_workers = args.threads;
    // The tuner's pin budget is for epoch batches, which a server does not
    // have; an explicit --cache-budget-mb reaches ServingEngine, which
    // rejects it.
    if (args.cache_budget_mb == 0) cfg.cache_budget_bytes = 0;
    std::cout << "Starting serving engine ("
              << gnn::model_name(cfg.model.kind) << ", " << args.bits
              << "-bit, max " << policy.max_batch_nodes << " nodes / "
              << policy.max_batch_requests << " requests / "
              << policy.max_wait_us << " us per micro-batch)...\n";
    std::unique_ptr<core::ServingEngine> serving_ptr =
        dstore ? std::make_unique<core::ServingEngine>(*dstore, cfg, policy)
               : std::make_unique<core::ServingEngine>(ds, cfg, policy);
    core::ServingEngine& serving = *serving_ptr;

    core::LoadSpec load;
    load.num_requests = args.requests;
    load.target_qps = args.qps;
    load.fanout = args.fanout;
    const core::LoadReport rep = core::run_poisson_load(serving, load);
    serving.stop();
    const core::ServingStats st = serving.stats();

    core::TablePrinter table({"metric", "value"});
    table.add_row({"requests completed", std::to_string(rep.completed)});
    table.add_row({"requests failed", std::to_string(rep.failed)});
    table.add_row({"offered QPS", core::TablePrinter::fmt(rep.offered_qps, 1)});
    table.add_row({"sustained QPS", core::TablePrinter::fmt(rep.sustained_qps, 1)});
    table.add_row({"p50 latency ms", core::TablePrinter::fmt(rep.p50_ms, 3)});
    table.add_row({"p99 latency ms", core::TablePrinter::fmt(rep.p99_ms, 3)});
    table.add_row({"p99.9 latency ms", core::TablePrinter::fmt(rep.p999_ms, 3)});
    table.add_row({"mean requests/batch",
                   core::TablePrinter::fmt(rep.mean_batch_requests, 2)});
    table.add_row({"micro-batches", std::to_string(st.batches_dispatched)});
    table.add_row({"dispatches (full/timeout)",
                   std::to_string(st.dispatches_full) + "/" +
                       std::to_string(st.dispatches_timeout)});
    table.add_row({"packed MB shipped",
                   core::TablePrinter::fmt(
                       static_cast<double>(st.packed_bytes) / 1e6, 2)});
    table.add_row({"tile MMAs", std::to_string(st.bmma_ops)});
    table.add_row({"batcher busy/stall ms", stage_row(st.batcher_stage)});
    table.add_row({"prepare busy/stall ms", stage_row(st.prepare_stage)});
    table.add_row({"ship busy/stall ms", stage_row(st.ship_stage)});
    table.add_row({"compute busy/stall ms", stage_row(st.compute_stage)});
    table.print(std::cout);
    flush_observability();
    return 0;
  }

  std::cout << "Building engine (" << gnn::model_name(cfg.model.kind) << ", "
            << args.bits << "-bit, " << cfg.num_partitions << " partitions)...\n";
  std::unique_ptr<core::QgtcEngine> engine_ptr =
      dstore ? std::make_unique<core::QgtcEngine>(*dstore, cfg)
             : std::make_unique<core::QgtcEngine>(ds, cfg);
  core::QgtcEngine& engine = *engine_ptr;

  const auto q = engine.run_quantized(args.rounds);
  const auto f = engine.run_fp32(args.rounds);
  const auto t = engine.transfer_accounting();

  core::TablePrinter table({"metric", "value"});
  table.add_row({"backend", q.backend});
  table.add_row({"epilogue",
                 cfg.model.fused_epilogue
                     ? "fused (" + std::to_string(q.epilogue_fused_layers) +
                           " stages/pass)"
                     : "unfused"});
  table.add_row({"epoch mode",
                 cfg.mode.streaming()
                     ? "streaming (depth " + std::to_string(cfg.mode.pipeline_depth) +
                           ", " + std::to_string(q.prepare_threads) +
                           " prepare threads)"
                     : "precomputed"});
  table.add_row({"inter-batch threads", std::to_string(q.inter_batch_threads)});
  table.add_row({"batches", std::to_string(q.batches)});
  table.add_row({"nodes/epoch", std::to_string(q.nodes)});
  table.add_row({"QGTC ms/epoch", core::TablePrinter::fmt(q.forward_seconds * 1e3, 1)});
  table.add_row({"fp32 ms/epoch", core::TablePrinter::fmt(f.forward_seconds * 1e3, 1)});
  table.add_row({"speedup", core::TablePrinter::fmt(f.forward_seconds / q.forward_seconds, 2) + "x"});
  table.add_row({"tile MMAs/epoch", std::to_string(q.bmma_ops)});
  table.add_row({"tiles jumped/epoch", std::to_string(q.tiles_jumped)});
  table.add_row({"int32 MB avoided/epoch",
                 core::TablePrinter::fmt(
                     static_cast<double>(q.int32_bytes_avoided) / 1e6, 2)});
  table.add_row({"saturated values/epoch", std::to_string(q.saturated)});
  table.add_row({"non-zero tile ratio",
                 core::TablePrinter::fmt_pct(engine.nonzero_tile_ratio(), 1)});
  table.add_row({"adjacency MB shipped",
                 core::TablePrinter::fmt(static_cast<double>(t.adj_bytes) / 1e6, 2)});
  table.add_row({"packed transfer MB",
                 core::TablePrinter::fmt(static_cast<double>(t.packed_bytes) / 1e6, 1)});
  table.add_row({"dense transfer MB",
                 core::TablePrinter::fmt(static_cast<double>(t.dense_bytes) / 1e6, 1)});
  if (cfg.mode.streaming()) {
    table.add_row({"wire ms/epoch (inline)",
                   core::TablePrinter::fmt(q.packed_transfer_seconds * 1e3, 2)});
    table.add_row({"exposed transfer ms",
                   core::TablePrinter::fmt(q.exposed_transfer_seconds * 1e3, 2)});
    table.add_row({"prepare busy/stall ms", stage_row(q.stage_breakdown.prepare)});
    table.add_row({"ship busy/stall ms", stage_row(q.stage_breakdown.ship)});
    table.add_row({"compute busy/stall ms", stage_row(q.stage_breakdown.compute)});
  }
  if (cfg.cache_budget_bytes > 0) {
    const double lookups = static_cast<double>(q.cache_hits + q.cache_misses);
    table.add_row({"cache hits/misses per epoch",
                   std::to_string(q.cache_hits) + "/" +
                       std::to_string(q.cache_misses)});
    table.add_row({"cache hit ratio (timed epochs)",
                   lookups > 0 ? core::TablePrinter::fmt_pct(
                                     static_cast<double>(q.cache_hits) / lookups, 1)
                               : "n/a"});
    table.add_row({"cache resident MB",
                   core::TablePrinter::fmt(
                       static_cast<double>(q.cache_resident_bytes) / 1e6, 2)});
  }
  table.add_row({"prepare MB read/epoch",
                 core::TablePrinter::fmt(
                     static_cast<double>(q.prepare_bytes_read) / 1e6, 2)});
  if (dstore) {
    table.add_row({"mapped store MB",
                   core::TablePrinter::fmt(
                       static_cast<double>(engine.mapped_bytes()) / 1e6, 2)});
  }
  table.add_row({"peak prepared MB",
                 core::TablePrinter::fmt(static_cast<double>(q.peak_prepared_bytes) / 1e6, 2)});
  table.add_row({"peak RSS MB",
                 core::TablePrinter::fmt(static_cast<double>(vm_hwm_bytes()) / 1e6, 1)});
  table.print(std::cout);
  flush_observability();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    if (!parse(argc, argv, args)) return 0;
    parsed = true;
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (!parsed) usage();
    return 1;
  }
}
