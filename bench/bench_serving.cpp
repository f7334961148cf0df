// Online serving bench, two phases:
//
// 1. Parity gate: requests replaying an offline epoch's batch memberships
//    through the serving pipeline must produce bit-identical logits and
//    identical substrate counters (bmma_ops, tiles_jumped) on every backend
//    — the serving layer is a scheduling change, not a numerics change.
//    Exits non-zero on any mismatch.
// 2. Open-loop Poisson load: per-request ego-graph queries at a target QPS,
//    reporting p50/p99/p99.9 latency, sustained QPS and the coalescing the
//    dynamic micro-batcher achieved. Exits non-zero if the tail percentiles
//    come back unreported (p99 <= 0 with completions).
#include "bench_util.hpp"

#include "core/autotune.hpp"
#include "core/serving.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::bench {
namespace {

core::EngineConfig serving_engine_config(const Dataset& ds) {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = ds.spec.feature_dim;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = ds.spec.num_classes;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = 128;
  cfg.batch_size = 8;
  return cfg;
}

/// Replays every offline batch membership through the serving pipeline and
/// compares logits + counters bit-for-bit. Returns true on exact parity.
bool parity_gate(const Dataset& ds, tcsim::BackendKind backend,
                 core::TablePrinter& table) {
  core::EngineConfig cfg = serving_engine_config(ds);
  cfg.backend = backend;

  core::QgtcEngine offline(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  const core::EngineStats ref = offline.run_quantized(1, &ref_logits);

  core::ServingPolicy policy;
  policy.max_batch_requests = cfg.batch_size;
  policy.max_batch_nodes = i64{1} << 40;  // request count alone rules dispatch
  policy.max_wait_us = i64{60} * 1000 * 1000;
  policy.prepare_workers = 2;
  policy.compute_workers = 2;
  core::ServingEngine serving(ds, cfg, policy);

  std::vector<std::future<core::ServingResult>> futures;
  std::vector<std::pair<i64, i64>> origin;
  for (i64 b = 0; b < offline.num_batches(); ++b) {
    const SubgraphBatch& batch =
        offline.batch_data()[static_cast<std::size_t>(b)]->batch;
    for (i64 p = 0; p < batch.num_parts(); ++p) {
      core::ServingRequest req;
      req.fanout = 0;
      req.seeds.assign(batch.nodes.begin() + batch.part_bounds[p],
                       batch.nodes.begin() + batch.part_bounds[p + 1]);
      futures.push_back(serving.submit(std::move(req)));
      origin.emplace_back(b, p);
    }
  }
  serving.stop();

  bool logits_ok = true;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const core::ServingResult res = futures[i].get();
    const auto [b, p] = origin[i];
    const SubgraphBatch& batch =
        offline.batch_data()[static_cast<std::size_t>(b)]->batch;
    const MatrixI32& ref_b = ref_logits[static_cast<std::size_t>(b)];
    const i64 r0 = batch.part_bounds[p];
    const i64 r1 = batch.part_bounds[p + 1];
    if (res.logits.rows() != r1 - r0 || res.logits.cols() != ref_b.cols()) {
      logits_ok = false;
      continue;
    }
    for (i64 r = r0; r < r1 && logits_ok; ++r) {
      for (i64 c = 0; c < ref_b.cols(); ++c) {
        if (res.logits(r - r0, c) != ref_b(r, c)) logits_ok = false;
      }
    }
  }
  const core::ServingStats st = serving.stats();
  const bool counters_ok =
      st.bmma_ops == ref.bmma_ops && st.tiles_jumped == ref.tiles_jumped;
  const bool ok = logits_ok && counters_ok && st.requests_failed == 0;

  table.add_row({std::string(tcsim::backend_name(backend)),
                 std::to_string(st.requests_completed),
                 std::to_string(ref.bmma_ops), std::to_string(st.bmma_ops),
                 std::to_string(ref.tiles_jumped),
                 std::to_string(st.tiles_jumped),
                 ok ? "bit-identical" : "MISMATCH"});
  return ok;
}

int run(int argc, char** argv) {
  print_banner(
      "Online serving: dynamic micro-batching vs offline epochs",
      "per-request ego-graph serving rides the offline prepare/ship/compute "
      "path bit-identically, and the micro-batcher sustains open-loop "
      "Poisson load with bounded tails (§6 deployed as a service)");

  const DatasetSpec spec = table1_spec("Proteins", products_scale());
  const Dataset ds = generate_dataset(spec);
  JsonReport json("serving", argc, argv);
  json.meta("workload", "serving/" + spec.name);
  json.meta("host_threads", static_cast<double>(num_threads()));

  // ------------------------------------------------------- parity phase
  std::cout << "\n-- Phase 1: serving vs offline-epoch parity --\n";
  core::TablePrinter parity({"backend", "requests", "ref MMAs",
                             "served MMAs", "ref jumped", "served jumped",
                             "verdict"});
  bool parity_ok = true;
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    parity_ok = parity_gate(ds, backend, parity) && parity_ok;
  }
  parity.print(std::cout);
  json.meta("parity", parity_ok ? "bit-identical" : "MISMATCH");

  // --------------------------------------------------- Poisson load phase
  std::cout << "\n-- Phase 2: open-loop Poisson load --\n";
  core::EngineConfig cfg = serving_engine_config(ds);
  const auto tuned = core::generate_runtime_config(
      spec, cfg.model, {}, core::TuneObjective::kLatency);
  core::ServingPolicy policy = tuned.serving;
  core::TablePrinter load_table({"offered QPS", "sustained QPS", "p50 ms",
                                 "p99 ms", "p99.9 ms", "req/batch",
                                 "completed", "failed"});
  std::vector<double> qps_points = quick() ? std::vector<double>{200.0}
                                           : std::vector<double>{100.0, 400.0,
                                                                 800.0};
  bool tails_ok = true;
  {
    core::ServingEngine serving(ds, cfg, policy);
    for (const double qps : qps_points) {
      core::LoadSpec load;
      load.num_requests = quick() ? 64 : 512;
      load.target_qps = qps;
      load.seeds_per_request = 4;
      load.fanout = 1;
      load.max_nodes = 512;
      const core::LoadReport rep = core::run_poisson_load(serving, load);
      load_table.add_row(
          {core::TablePrinter::fmt(rep.offered_qps, 0),
           core::TablePrinter::fmt(rep.sustained_qps, 1),
           core::TablePrinter::fmt(rep.p50_ms, 3),
           core::TablePrinter::fmt(rep.p99_ms, 3),
           core::TablePrinter::fmt(rep.p999_ms, 3),
           core::TablePrinter::fmt(rep.mean_batch_requests, 2),
           std::to_string(rep.completed), std::to_string(rep.failed)});
      json.add_row({},
                   {{"offered_qps", rep.offered_qps},
                    {"sustained_qps", rep.sustained_qps},
                    {"p50_ms", rep.p50_ms},
                    {"p99_ms", rep.p99_ms},
                    {"p999_ms", rep.p999_ms},
                    {"mean_batch_requests", rep.mean_batch_requests},
                    {"completed", static_cast<double>(rep.completed)},
                    {"failed", static_cast<double>(rep.failed)}});
      // The gate the CI smoke run enforces: tails must be measured.
      tails_ok = tails_ok && rep.completed > 0 && rep.failed == 0 &&
                 rep.p99_ms > 0.0 && rep.p999_ms >= rep.p99_ms &&
                 rep.p99_ms >= rep.p50_ms;
    }
    serving.stop();
    const core::ServingStats st = serving.stats();
    json.meta("batches_dispatched", static_cast<double>(st.batches_dispatched));
    json.meta("dispatches_timeout", static_cast<double>(st.dispatches_timeout));
    json.meta("packed_bytes", static_cast<double>(st.packed_bytes));
    // Per-stage busy/stall attribution over the whole load phase: the stall
    // columns separate queue-wait from service time per stage, which is the
    // tail-latency debugging signal (a stalled compute stage means prepare
    // or ship is the straggler; batcher stall is idle admission time).
    json.meta("batcher_busy_ms", st.batcher_stage.busy_seconds * 1e3);
    json.meta("batcher_stall_ms", st.batcher_stage.stall_seconds * 1e3);
    json.meta("prepare_busy_ms", st.prepare_stage.busy_seconds * 1e3);
    json.meta("prepare_stall_ms", st.prepare_stage.stall_seconds * 1e3);
    json.meta("ship_busy_ms", st.ship_stage.busy_seconds * 1e3);
    json.meta("ship_stall_ms", st.ship_stage.stall_seconds * 1e3);
    json.meta("compute_busy_ms", st.compute_stage.busy_seconds * 1e3);
    json.meta("compute_stall_ms", st.compute_stage.stall_seconds * 1e3);
    std::cout << "Stage busy/stall ms (batcher/prepare/ship/compute): "
              << core::TablePrinter::fmt(st.batcher_stage.busy_seconds * 1e3, 1)
              << "/"
              << core::TablePrinter::fmt(st.batcher_stage.stall_seconds * 1e3, 1)
              << "  "
              << core::TablePrinter::fmt(st.prepare_stage.busy_seconds * 1e3, 1)
              << "/"
              << core::TablePrinter::fmt(st.prepare_stage.stall_seconds * 1e3, 1)
              << "  "
              << core::TablePrinter::fmt(st.ship_stage.busy_seconds * 1e3, 1)
              << "/"
              << core::TablePrinter::fmt(st.ship_stage.stall_seconds * 1e3, 1)
              << "  "
              << core::TablePrinter::fmt(st.compute_stage.busy_seconds * 1e3, 1)
              << "/"
              << core::TablePrinter::fmt(st.compute_stage.stall_seconds * 1e3, 1)
              << "\n";
  }
  load_table.print(std::cout);

  add_memory_meta(json);
  json.write();
  std::cout << (parity_ok
                    ? "\nParity gate holds: serving logits and counters are "
                      "bit-identical to the offline epoch on every backend.\n"
                    : "\nWARNING: serving/offline parity MISMATCH!\n");
  std::cout << (tails_ok ? "Tail latencies reported (p50 <= p99 <= p99.9), "
                           "no failed requests.\n"
                         : "WARNING: tail latency gate failed (unreported "
                           "percentiles or failed requests)!\n");
  return parity_ok && tails_ok ? 0 : 1;
}

}  // namespace
}  // namespace qgtc::bench

int main(int argc, char** argv) { return qgtc::bench::run(argc, argv); }