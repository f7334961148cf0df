// bench_e2e — the repository's end-to-end benchmark.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// The parent process stays small: it forks/execs this binary once as a
// writer child, which generates the workload's inputs from the seed and
// writes them under build-e2e/out/, and once as the measured child (trace 0)
// or traced child (trace 1), which only reads those inputs. Peak RSS is the
// measured child's own ru_maxrss, so neither input generation nor the parent
// pollutes it. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed correctness check makes `correct` false and the exit code 1.
// README.md beside this file documents every metric and workload.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hpp"
#include "tcsim/backend.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using e2e::i64;
using e2e::u64;

/// Where inputs, traces and scratch go, relative to the working directory
/// (the checkout root).
const fs::path kOutDir = "build-e2e/out";
/// Children still running this long after the parent started are killed, so
/// one invocation always ends inside the 180 s a run is allowed.
constexpr std::chrono::seconds kRunDeadline{170};
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string child;  // "", "write", "measure", "trace"
  std::string dir;
  bool store = false;  // writer: also write the out-of-core store
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val) != 0;
    } else if (key == "--child") {
      a.child = val;
    } else if (key == "--dir") {
      a.dir = val;
    } else if (key == "--store") {
      a.store = std::stoi(val) != 0;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 60)) {
    throw std::invalid_argument("--seconds must be in (0, 60]");
  }
  return a;
}

std::string trace_path(const std::string& workload) {
  return (kOutDir / ("trace_" + workload + ".json")).string();
}

int run_child(const Args& a) {
  const e2e::Workload& w = e2e::find_workload(a.workload);
  if (a.child == "write") {
    e2e::write_inputs(w, a.seed, a.dir, a.store);
    return 0;
  }
  e2e::Report rep;
  if (a.child == "measure") {
    rep = w.shape == e2e::Shape::kServe
              ? e2e::measure_serving(w, a.dir, a.seconds, a.seed)
              : e2e::measure_epochs(w, a.dir, a.seconds);
  } else if (a.child == "trace") {
    rep = e2e::trace_layers(w, a.dir, a.seconds, a.seed, trace_path(w.name));
  } else {
    throw std::invalid_argument("unknown child role " + a.child);
  }
  rep.write(a.dir + "/result.txt");
  return 0;
}

/// Removes the scratch directory however the parent exits.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// Fork/execs this binary with `args`, OMP_NUM_THREADS set to `omp_threads`
/// (0 = inherit), waits for it and returns its rusage. Throws unless the
/// child exits 0 before `deadline`.
rusage spawn(std::vector<std::string> args, int omp_threads,
             Clock::time_point deadline) {
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    const bool omp_var = std::strncmp(*e, "OMP_NUM_THREADS=", 16) == 0;
    if (!(omp_threads > 0 && omp_var)) env_store.emplace_back(*e);
  }
  if (omp_threads > 0) {
    env_store.push_back("OMP_NUM_THREADS=" + std::to_string(omp_threads));
  }
  args.insert(args.begin(), "/proc/self/exe");
  std::vector<char*> envp, argv;
  for (std::string& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execve("/proc/self/exe", argv.data(), envp.data());
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t r = wait4(pid, &status, WNOHANG, &ru);
    if (r == pid) break;
    if (r < 0) throw std::runtime_error("wait4 failed");
    if (Clock::now() > deadline) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, &ru);
      throw std::runtime_error("child " + args[2] + " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child " + args[2] + " failed");
  }
  return ru;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

int run_parent(const Args& a) {
  const Clock::time_point deadline = Clock::now() + kRunDeadline;
  const e2e::Workload& w = e2e::find_workload(a.workload);
  const bool stream = w.shape == e2e::Shape::kStream;
  const ScratchDir work(kOutDir / ("work-" + std::to_string(getpid())));
  const std::string dir = work.path.string();
  const std::vector<std::string> common = {
      "--workload", w.name, "--seed", std::to_string(a.seed), "--seconds",
      e2e::fmt_double(a.seconds), "--dir", dir};

  std::vector<std::string> write_args = {"--child", "write"};
  write_args.insert(write_args.end(), common.begin(), common.end());
  write_args.insert(write_args.end(),
                    {"--store", (a.trace || stream) ? "1" : "0"});
  spawn(write_args, /*omp_threads=*/0, deadline);

  std::vector<std::string> run_args = {"--child",
                                       a.trace ? "trace" : "measure"};
  run_args.insert(run_args.end(), common.begin(), common.end());
  const rusage ru = spawn(run_args, w.omp_threads, deadline);

  e2e::Report rep = e2e::Report::read(dir + "/result.txt");
  if (!a.trace) {
    // ru_maxrss is in KiB on Linux.
    rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6,
            "MB");
  }
  rep.note("workload", w.name);
  rep.note("seed", static_cast<double>(a.seed));
  rep.note("seconds", a.seconds);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    rep.note("nproc", CPU_COUNT(&cpus));
  }
  rep.note("omp_threads", w.omp_threads);
  rep.note("backend", qgtc::tcsim::backend(w.cfg.backend).name());

  std::string context;
  for (const auto& [key, value] : rep.context) {
    context += (context.empty() ? "" : ", ") + json_string(key) + ": " +
               json_string(value);
  }
  std::printf("# context {%s}\n", context.c_str());
  std::string metrics;
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::printf("# %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + e2e::fmt_double(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = rep.failed == 0 && rep.attempted >= 1;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.child.empty() ? run_parent(a) : run_child(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
