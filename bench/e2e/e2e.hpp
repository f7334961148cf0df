// End-to-end benchmark: workload table, child-process bodies and the report
// a child hands back to its parent. See README.md beside this file for the
// metrics, the workloads and why each was chosen.
#pragma once

#include <omp.h>

#include <map>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/serving.hpp"
#include "core/stats.hpp"

namespace e2e {

using qgtc::i64;
using qgtc::u64;

/// How a workload drives the engine.
enum class Shape {
  kEpoch,   // precomputed in-core epochs (paper §6 protocol)
  kStream,  // streaming epochs over the mmap'd out-of-core store
  kServe,   // ServingEngine under fan-out bursts, then an open loop
};

struct Workload {
  std::string name;
  Shape shape = Shape::kEpoch;
  std::string dataset;  // Table-1 stand-in the inputs are generated from
  qgtc::core::EngineConfig cfg;
  /// OMP_NUM_THREADS of the measured child.
  int omp_threads = 1;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);
/// Fixed here rather than taken from the library default, so a change to
/// ServingPolicy's defaults cannot silently change the benchmark.
qgtc::core::ServingPolicy serving_policy();
/// serve_proteins' throughput under fan-out bursts of one full micro-batch,
/// in requests/s, measured at the commit that added this benchmark
/// (README.md, "Serving load"). The open-loop phases offer fixed shares of
/// it, so the offered load does not move with the code under test.
inline constexpr double kServeCapacityQps = 12000;
inline constexpr double kLowLoadShare = 0.1;
inline constexpr double kHighLoadShare = 0.5;
/// Residency budget of the mmap'd store (bounds the out-of-core RSS).
qgtc::store::StoreOpenOptions store_options();

/// What a child hands back: named metrics with units, context strings and
/// the correctness tally.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;
  i64 attempted = 0;
  i64 failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    context[key] = value;
  }
  void note(const std::string& key, double value);
  void write(const std::string& path) const;
  static Report read(const std::string& path);
};

/// A measured child sets up at least kSetups times and for at least
/// kSetupSeconds; setup_s is the median.
inline constexpr std::size_t kSetups = 9;
inline constexpr double kSetupSeconds = 1.0;

// ---------------------------------------------------------- statistics ----
double median(std::vector<double> v);
/// Exact p-th percentile of `seconds`, in milliseconds (0 for no samples).
double percentile_ms(const std::vector<double>& seconds, double p);
/// A double with all its digits ("%.17g").
std::string fmt_double(double v);

/// Calls `build` on one OpenMP thread at least kSetups times and until
/// kSetupSeconds have passed, stores each build's wall time in `seconds` and
/// returns the last build; tearing a build down is not timed. Set-up is
/// sequential apart from small per-batch parallel loops, whose fork/join on
/// a shared host adds more noise than speed (README.md, "Noise").
template <typename Fn>
auto timed_setups(Fn&& build, std::vector<double>& seconds) {
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  decltype(build()) built{};
  const qgtc::Timer total;
  while (seconds.size() < kSetups || total.seconds() < kSetupSeconds) {
    built = {};
    qgtc::Timer t;
    auto next = build();
    seconds.push_back(t.seconds());
    built = std::move(next);
  }
  omp_set_num_threads(threads);
  return built;
}

// ------------------------------------------------------------- children ----
/// Writer child: generates the dataset and writes `dataset.bin`, plus the
/// store directory when `with_store`, plus (stream workload) the per-batch
/// logits digests of the in-core gcn_artist engine on the same data.
void write_inputs(const Workload& w, u64 seed, const std::string& dir,
                  bool with_store);
/// Measured child for kEpoch / kStream: setup, timed epochs, bit-identity.
Report measure_epochs(const Workload& w, const std::string& dir,
                      double seconds);
/// Measured child for kServe: setup, fan-out bursts, open-loop phases.
Report measure_serving(const Workload& w, const std::string& dir,
                       double seconds, u64 seed);
/// Traced child: per-layer replay of one epoch plus the pipeline, serving,
/// baseline and tracing-overhead probes; writes a Chrome trace.
Report trace_layers(const Workload& w, const std::string& dir, double seconds,
                    u64 seed, const std::string& trace_path);

// ------------------------------------------------------ shared helpers ----
/// FNV-1a over a logits matrix (shape + values).
u64 digest(const qgtc::MatrixI32& m);

/// Per-batch logits digests and substrate counters of a sequential
/// single-context `forward_prepared` pass over every batch of `engine`.
struct Replay {
  std::vector<u64> digests;
  qgtc::tcsim::Counters counters;
};
Replay replay_epoch(const qgtc::core::QgtcEngine& engine);

}  // namespace e2e
