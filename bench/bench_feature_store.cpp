// bench_feature_store — the out-of-core store + pinned prepared-batch gates.
//
// Phase A (cache): one streaming engine with a 1 GiB pin budget vs one
// without, same dataset, same knobs. The first engine pins every prepared
// batch that fits, so its timed (warm) epochs must take >= 90% of their
// batches from the resident set and run >= 1.3x faster than the unpinned
// engine's epochs (which pay prepare + pack every batch).
//
// Phase B (out-of-core): the Figure 7(a) cluster-GCN sweep runs twice in
// CHILD processes (fork + exec of /proc/self/exe) — once loading the whole
// dataset in-core, once over the mmap'd store with a small residency budget.
// VmHWM is monotonic per process, so peak RSS is measured per child via
// wait4()'s ru_maxrss. Gates: identical logits hash + substrate counters,
// and out-of-core peak RSS <= 60% of in-core.
//
// Any gate violation prints FAIL and exits non-zero (the CI smoke contract).
// QGTC_QUICK=1 shrinks phase A; phase B keeps its dataset large enough that
// the feature matrix dominates a small host's base RSS.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "graph/io.hpp"
#include "store/dataset_store.hpp"

namespace {

using namespace qgtc;
namespace fs = std::filesystem;

u64 logits_hash(const std::vector<MatrixI32>& logits) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const MatrixI32& m : logits) {
    mix(static_cast<u64>(m.rows()));
    for (i64 i = 0; i < m.size(); ++i) {
      mix(static_cast<u64>(static_cast<u32>(m.data()[i])));
    }
  }
  return h;
}

// ------------------------------------------------------------------ phase B

DatasetSpec fig7a_spec() {
  // Sized so the fp32 feature matrix (~164 MB) dominates the process base
  // RSS: the in-core child must hold all of it, the out-of-core child only
  // the residency budget's worth of mapped pages.
  return DatasetSpec{"fig7a-ooc", 160000, 1200000, 256, 16, 1024, 11};
}

core::EngineConfig fig7a_config() {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 256;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 16;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = 1024;
  cfg.batch_size = 16;
  // Streaming keeps prepared data O(depth) in BOTH children, so the RSS gap
  // isolates exactly the feature/CSR storage substitution.
  cfg.mode = core::RunMode::streaming_pipeline(1, 1);
  cfg.inter_batch_threads = 1;
  return cfg;
}

/// Child body: run the sweep, write counters + logits hash, exit 0.
/// (`--child-write` instead generates the dataset and writes both on-disk
/// forms; it runs in a child so the parent's RSS stays small — a forked
/// child's ru_maxrss starts at the parent's resident set, so the parent
/// must be tiny when the measured children are spawned.)
int run_child(const std::string& mode, const std::string& data_path,
              const std::string& out_path) {
  if (mode == "--child-write") {
    const Dataset ds = generate_dataset(fig7a_spec());
    io::save_dataset_file(data_path + "/dataset.bin", ds);
    io::save_dataset_store(data_path + "/store", ds);
    std::ofstream out(out_path);
    out << "0 0 0 0\n";
    return out ? 0 : 1;
  }
  Dataset ds;
  std::unique_ptr<store::DatasetStore> st;
  std::unique_ptr<core::QgtcEngine> engine;
  const core::EngineConfig cfg = fig7a_config();
  if (mode == "--child-incore") {
    ds = io::load_dataset_file(data_path);
    engine = std::make_unique<core::QgtcEngine>(ds, cfg);
  } else {
    store::StoreOpenOptions opt;
    opt.residency_budget_bytes = 8ll << 20;
    st = std::make_unique<store::DatasetStore>(
        store::DatasetStore::open(data_path, opt));
    engine = std::make_unique<core::QgtcEngine>(*st, cfg);
  }
  std::vector<MatrixI32> logits;
  const core::EngineStats s = engine->run_quantized(1, &logits);
  std::ofstream out(out_path);
  out << s.bmma_ops << ' ' << s.tiles_jumped << ' ' << s.nodes << ' '
      << logits_hash(logits) << '\n';
  return out ? 0 : 1;
}

struct ChildResult {
  i64 bmma = 0;
  i64 jumped = 0;
  i64 nodes = 0;
  u64 lhash = 0;
  i64 peak_rss_bytes = 0;
};

/// Forks + execs this binary in child mode and reads back counters + the
/// child's own ru_maxrss.
ChildResult spawn_child(const std::string& mode, const std::string& data_path,
                        const std::string& out_path) {
  const pid_t pid = fork();
  QGTC_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    const char* argv[] = {"/proc/self/exe", mode.c_str(), data_path.c_str(),
                          out_path.c_str(), nullptr};
    execv("/proc/self/exe", const_cast<char**>(argv));
    _exit(127);  // exec failed
  }
  int status = 0;
  struct rusage ru {};
  QGTC_CHECK(wait4(pid, &status, 0, &ru) == pid, "wait4 failed");
  QGTC_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "child " + mode + " failed");
  ChildResult r;
  r.peak_rss_bytes = static_cast<i64>(ru.ru_maxrss) * 1024;  // KB -> bytes
  std::ifstream in(out_path);
  QGTC_CHECK(static_cast<bool>(in >> r.bmma >> r.jumped >> r.nodes >> r.lhash),
             "child result unreadable: " + out_path);
  return r;
}

// ------------------------------------------------------------------ phase A

core::EngineConfig cache_bench_config(const DatasetSpec& spec) {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = spec.num_classes;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = spec.num_clusters;
  cfg.batch_size = 8;
  cfg.mode = core::RunMode::streaming_pipeline(2, 1);
  cfg.inter_batch_threads = 1;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qgtc;
  if (argc == 4 && std::strncmp(argv[1], "--child-", 8) == 0) {
    return run_child(argv[1], argv[2], argv[3]);
  }

  bench::print_banner(
      "Out-of-core feature store + prepared-batch cache",
      "warm cached epochs skip prepare+pack (>=1.3x, hit ratio >=90%); "
      "out-of-core peak RSS <=60% of in-core at identical results");
  bench::JsonReport json("feature_store", argc, argv);
  json.meta("workload", "streaming cluster-GCN, tile-sparse, 4-bit");
  std::vector<std::string> failures;

  const std::string tmp = "qgtc_bench_feature_store_tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  // ---------------------------------------------------------------- phase B
  {
    std::cout << "Fig. 7(a) sweep, in-core child vs out-of-core child...\n";
    const std::string data_bin = tmp + "/dataset.bin";
    const std::string store_dir = tmp + "/store";
    // Generate + write in a child: a forked child's ru_maxrss starts at the
    // parent's resident set, so the parent must never hold the dataset.
    spawn_child("--child-write", tmp, tmp + "/write.txt");

    const ChildResult incore =
        spawn_child("--child-incore", data_bin, tmp + "/incore.txt");
    const ChildResult ooc =
        spawn_child("--child-ooc", store_dir, tmp + "/ooc.txt");

    const double rss_ratio = static_cast<double>(ooc.peak_rss_bytes) /
                             static_cast<double>(incore.peak_rss_bytes);
    const bool counters_ok = incore.bmma == ooc.bmma &&
                             incore.jumped == ooc.jumped &&
                             incore.nodes == ooc.nodes &&
                             incore.lhash == ooc.lhash;

    core::TablePrinter table({"metric", "in-core", "out-of-core"});
    table.add_row({"peak RSS MB",
                   core::TablePrinter::fmt(
                       static_cast<double>(incore.peak_rss_bytes) / 1e6, 1),
                   core::TablePrinter::fmt(
                       static_cast<double>(ooc.peak_rss_bytes) / 1e6, 1)});
    table.add_row({"tile MMAs", std::to_string(incore.bmma),
                   std::to_string(ooc.bmma)});
    table.add_row({"logits hash", std::to_string(incore.lhash),
                   std::to_string(ooc.lhash)});
    table.add_row({"RSS ratio", "-",
                   core::TablePrinter::fmt_pct(rss_ratio, 1)});
    table.print(std::cout);

    json.meta("incore_peak_rss_bytes",
              static_cast<double>(incore.peak_rss_bytes));
    json.meta("ooc_peak_rss_bytes", static_cast<double>(ooc.peak_rss_bytes));
    json.meta("rss_ratio", rss_ratio);
    json.meta("counters_parity", counters_ok ? 1.0 : 0.0);

    if (!counters_ok) {
      failures.push_back("out-of-core counters/logits differ from in-core");
    }
    if (rss_ratio > 0.60) {
      failures.push_back("out-of-core RSS ratio " + std::to_string(rss_ratio) +
                         " > 0.60");
    }
  }


  // ---------------------------------------------------------------- phase A
  {
    std::cout << "\nCached vs uncached streaming epochs...\n";
    DatasetSpec spec{"cache-bench", bench::quick() ? 20000 : 60000,
                     bench::quick() ? 140000 : 420000, 32, 8,
                     bench::quick() ? 128 : 384, 21};
    const Dataset ds = generate_dataset(spec);
    const int rounds = 3;
    core::EngineConfig off_cfg = cache_bench_config(spec);
    core::EngineConfig on_cfg = off_cfg;
    on_cfg.cache_budget_bytes = i64{1} << 30;

    core::QgtcEngine engine_off(ds, off_cfg);
    core::QgtcEngine engine_on(ds, on_cfg);
    std::vector<MatrixI32> la, lb;
    const core::EngineStats cold = engine_off.run_quantized(rounds, &la);
    const core::EngineStats warm = engine_on.run_quantized(rounds, &lb);

    const double speedup = cold.forward_seconds / warm.forward_seconds;
    const double lookups =
        static_cast<double>(warm.cache_hits + warm.cache_misses);
    const double hit_ratio =
        lookups > 0 ? static_cast<double>(warm.cache_hits) / lookups : 0.0;
    const bool parity = logits_hash(la) == logits_hash(lb);

    core::TablePrinter table({"metric", "uncached", "cached(warm)"});
    table.add_row({"epoch ms", bench::ms(cold.forward_seconds),
                   bench::ms(warm.forward_seconds)});
    table.add_row({"prepare MB read/epoch",
                   core::TablePrinter::fmt(
                       static_cast<double>(cold.prepare_bytes_read) / 1e6, 2),
                   core::TablePrinter::fmt(
                       static_cast<double>(warm.prepare_bytes_read) / 1e6, 2)});
    table.add_row({"cache hit ratio", "-",
                   core::TablePrinter::fmt_pct(hit_ratio, 1)});
    table.add_row({"warm speedup", "-",
                   core::TablePrinter::fmt(speedup, 2) + "x"});
    table.print(std::cout);

    json.meta("uncached_epoch_ms", cold.forward_seconds * 1e3);
    json.meta("cached_epoch_ms", warm.forward_seconds * 1e3);
    json.meta("warm_speedup", speedup);
    json.meta("warm_hit_ratio", hit_ratio);
    json.meta("cache_resident_bytes",
              static_cast<double>(warm.cache_resident_bytes));
    json.meta("logits_parity", parity ? 1.0 : 0.0);

    if (!parity) failures.push_back("cached vs uncached logits differ");
    if (hit_ratio < 0.90) {
      failures.push_back("warm hit ratio " + std::to_string(hit_ratio) +
                         " < 0.90");
    }
    if (speedup < 1.3) {
      failures.push_back("warm speedup " + std::to_string(speedup) +
                         "x < 1.3x");
    }
  }

  fs::remove_all(tmp);
  bench::add_memory_meta(json);
  json.meta("gates_passed", failures.empty() ? 1.0 : 0.0);
  json.write();
  if (!failures.empty()) {
    for (const std::string& f : failures) std::cerr << "FAIL: " << f << "\n";
    return 1;
  }
  std::cout << "\nAll feature-store gates passed.\n";
  return 0;
}
