// bench_sharding — the NUMA-sharded engine's gates and scaling surface.
//
// 1. Parity gate: a 2-shard (and 4-shard) run must produce bit-identical
//    logits and identical substrate counters to the single-engine run — the
//    determinism contract sharding is built on.
// 2. Scaling: sharded epoch wall time vs the single-engine baseline at the
//    same total worker budget spread across shards; the gate (>= 1.3x at 2
//    shards) is enforced only on hosts with >= 4 cores, where there is real
//    parallelism to win.
// 3. Telemetry: per-shard busy/stall, halo bytes and exposed-halo seconds
//    rows, plus the imbalance summary — the rebalancer's input surface.
//
// Any gate violation prints FAIL and exits non-zero (the CI smoke contract).
#include <iostream>

#include "bench_util.hpp"
#include "core/sharded.hpp"
#include "parallel/parallel_for.hpp"

int main(int argc, char** argv) {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "NUMA-sharded engine (halo exchange + modelled interconnect)",
      "sharding a partitioned GNN epoch across memory domains scales epoch "
      "throughput while halo traffic stays a small, accounted fraction");

  const auto spec = table1_spec(bench::quick() ? "Proteins" : "artist");
  const Dataset ds = generate_dataset(spec);
  const int rounds = bench::quick() ? 2 : 3;

  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = spec.num_classes;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = bench::quick() ? 256 : 1500;
  cfg.batch_size = 16;

  bench::JsonReport json("sharding", argc, argv);
  json.meta("workload", "sharded epoch scaling + halo accounting");
  json.meta("dataset", spec.name);
  json.meta("host_threads", static_cast<double>(num_threads()));
  json.meta("rounds", static_cast<double>(rounds));

  // ------------------------------------------------------------ parity gate
  // Single-engine reference at 1 worker (the per-shard budget below).
  cfg.inter_batch_threads = 1;
  core::QgtcEngine reference(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  const core::EngineStats ref = reference.run_quantized(rounds, &ref_logits);

  bool parity_ok = true;
  TablePrinter table({"config", "epoch ms", "speedup", "halo MB",
                      "exposed halo ms", "max/mean busy"});
  table.add_row({"1 engine", bench::ms(ref.forward_seconds), "1.00", "0.00",
                 "0.00", "1.00"});
  json.add_row({{"kind", "baseline"}},
               {{"shards", 1.0},
                {"epoch_seconds", ref.forward_seconds},
                {"speedup", 1.0},
                {"halo_bytes", 0.0},
                {"exposed_halo_seconds", 0.0},
                {"bmma_ops", static_cast<double>(ref.bmma_ops)}});

  double two_shard_speedup = 0.0;
  for (const int shards : {2, 4}) {
    core::EngineConfig scfg_engine = cfg;
    // Same total worker budget as `shards` single-engine workers would use:
    // the coordinator divides this across shards, so each shard matches the
    // baseline's per-engine staffing and the speedup measures the shard
    // fan-out itself.
    scfg_engine.inter_batch_threads = shards;
    core::ShardedConfig scfg;
    scfg.num_shards = shards;
    core::ShardedEngine sharded(ds, scfg_engine, scfg);
    std::vector<MatrixI32> logits;
    const core::EngineStats st = sharded.run_quantized(rounds, &logits);

    bool match = logits.size() == ref_logits.size() &&
                 st.bmma_ops == ref.bmma_ops &&
                 st.tiles_jumped == ref.tiles_jumped &&
                 st.nodes == ref.nodes;
    if (match) {
      for (std::size_t b = 0; b < logits.size(); ++b) {
        if (!(logits[b] == ref_logits[b])) {
          match = false;
          break;
        }
      }
    }
    if (!match) {
      std::cout << "FAIL: " << shards
                << "-shard run diverged from the single-engine reference\n";
      parity_ok = false;
    }
    if (st.halo_bytes <= 0) {
      std::cout << "FAIL: " << shards << "-shard run reported no halo bytes\n";
      parity_ok = false;
    }

    const double speedup = st.forward_seconds > 0.0
                               ? ref.forward_seconds / st.forward_seconds
                               : 0.0;
    if (shards == 2) two_shard_speedup = speedup;
    const core::ImbalanceReport imb = sharded.imbalance();
    table.add_row({std::to_string(shards) + " shards",
                   bench::ms(st.forward_seconds),
                   TablePrinter::fmt(speedup, 2),
                   TablePrinter::fmt(static_cast<double>(st.halo_bytes) /
                                         (1024.0 * 1024.0),
                                     2),
                   bench::ms(st.exposed_halo_seconds),
                   TablePrinter::fmt(imb.max_over_mean, 2)});
    json.add_row({{"kind", "sharded"}},
                 {{"shards", static_cast<double>(shards)},
                  {"epoch_seconds", st.forward_seconds},
                  {"speedup", speedup},
                  {"halo_nodes", static_cast<double>(st.halo_nodes)},
                  {"halo_bytes", static_cast<double>(st.halo_bytes)},
                  {"halo_wire_seconds", st.halo_wire_seconds},
                  {"exposed_halo_seconds", st.exposed_halo_seconds},
                  {"max_over_mean_busy", imb.max_over_mean},
                  {"halo_stall_share", imb.halo_stall_share},
                  {"parity", match ? 1.0 : 0.0}});

    // Per-shard telemetry rows: the imbalance analysis' raw input.
    for (const core::ShardReport& r : sharded.shard_reports()) {
      json.add_row(
          {{"kind", "shard"}},
          {{"shards", static_cast<double>(shards)},
           {"shard", static_cast<double>(r.shard)},
           {"batches", static_cast<double>(r.batches)},
           {"nodes", static_cast<double>(r.nodes)},
           {"busy_seconds", r.busy_seconds},
           {"stall_seconds", r.stall_seconds},
           {"halo_bytes", static_cast<double>(r.halo_bytes)},
           {"halo_wire_seconds", r.halo_wire_seconds},
           {"exposed_halo_seconds", r.exposed_halo_seconds},
           {"pinned", r.pinned ? 1.0 : 0.0}});
    }
  }
  table.print(std::cout);

  // ------------------------------------------------------- scaling gate
  // Only meaningful with real cores to spread over: 2 shards x 1 worker
  // needs >= 4 cores to leave room for OS noise; below that the bench still
  // reports the numbers but does not enforce the ratio.
  const bool enforce_scaling = num_threads() >= 4;
  bool scaling_ok = true;
  if (enforce_scaling && two_shard_speedup < 1.3) {
    std::cout << "FAIL: 2-shard speedup " << TablePrinter::fmt(two_shard_speedup, 2)
              << "x below the 1.3x gate (host has " << num_threads()
              << " threads)\n";
    scaling_ok = false;
  }
  json.meta("scaling_gate_enforced", enforce_scaling ? 1.0 : 0.0);
  json.meta("two_shard_speedup", two_shard_speedup);
  json.meta("parity", parity_ok ? 1.0 : 0.0);
  bench::add_memory_meta(json);
  json.write();

  if (parity_ok && scaling_ok) {
    std::cout << "\nSharding gates hold: S-shard runs bit-identical to the "
                 "single engine, halo accounted"
              << (enforce_scaling ? ", 2-shard speedup >= 1.3x.\n"
                                  : " (scaling gate skipped: small host).\n");
    return 0;
  }
  return 1;
}
