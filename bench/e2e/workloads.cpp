// Workload table, report I/O, the writer child and the measured epoch child.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/timer.hpp"
#include "e2e.hpp"
#include "graph/io.hpp"
#include "store/dataset_store.hpp"

namespace e2e {

using namespace qgtc;

namespace {

/// Timed epochs a run always collects, so the tail has ten samples above it.
constexpr std::size_t kMinEpochs = 20;

core::EngineConfig make_config(gnn::ModelKind kind, i64 hidden, int bits,
                               i64 parts, i64 batch, core::RunMode mode,
                               int workers) {
  core::EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.hidden_dim = hidden;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = parts;
  cfg.batch_size = batch;
  // Explicit, so QGTC_BACKEND in the caller's environment cannot change what
  // is measured.
  cfg.backend = tcsim::BackendKind::kBlocked;
  cfg.mode = mode;
  cfg.inter_batch_threads = workers;
  cfg.cache_budget_bytes = 0;
  return cfg;
}

std::vector<Workload> build_workloads() {
  using gnn::ModelKind;
  using Adj = core::RunMode::Adjacency;
  const core::RunMode pre = core::RunMode::precomputed(Adj::kTileSparse);
  std::vector<Workload> ws = {
      {"gcn_artist", Shape::kEpoch, "artist",
       make_config(ModelKind::kClusterGCN, 16, 4, 1500, 16, pre, 2), 2},
      {"gin_ppi", Shape::kEpoch, "PPI",
       make_config(ModelKind::kBatchedGIN, 64, 8, 1500, 16, pre, 2), 2},
      {"stream_ooc", Shape::kStream, "artist",
       make_config(ModelKind::kClusterGCN, 16, 4, 1500, 16,
                   core::RunMode::streaming_pipeline(2, 1, Adj::kTileSparse),
                   2),
       1},
      {"serve_proteins", Shape::kServe, "Proteins",
       make_config(ModelKind::kClusterGCN, 16, 4, 128, 8, pre, 1), 1},
  };
  for (Workload& w : ws) {
    const DatasetSpec spec = table1_spec(w.dataset);
    w.cfg.model.in_dim = spec.feature_dim;
    w.cfg.model.out_dim = spec.num_classes;
  }
  return ws;
}

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The workload's dataset with `seed` mixed into the generator seed.
DatasetSpec dataset_spec(const Workload& w, u64 seed) {
  DatasetSpec spec = table1_spec(w.dataset);
  spec.seed = splitmix(spec.seed ^ splitmix(seed));
  return spec;
}

std::vector<u64> read_digests(const std::string& path) {
  std::ifstream in(path);
  QGTC_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::vector<u64> out;
  u64 d = 0;
  while (in >> d) out.push_back(d);
  return out;
}

/// The highest nearest-rank percentile with at least ten samples above it,
/// as {value, percentile}; the median when there are fewer than 20 samples.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 20) return {median(v), 50.0};
  return {v[n - 11],
          100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> all = build_workloads();
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

core::ServingPolicy serving_policy() {
  core::ServingPolicy p;
  p.max_batch_nodes = 4096;
  p.max_batch_requests = 16;
  p.max_wait_us = 200;
  p.prepare_workers = 1;
  p.compute_workers = 1;
  p.admission_capacity = 256;
  p.queue_depth = 2;
  return p;
}

store::StoreOpenOptions store_options() {
  store::StoreOpenOptions opt;
  opt.residency_budget_bytes = 8ll << 20;
  return opt;
}

// ---------------------------------------------------------------- Report ----

void Report::note(const std::string& key, double value) {
  context[key] = fmt_double(value);
}

void Report::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& [name, m] : metrics) {
    out << "metric " << name << ' ' << fmt_double(m.value) << ' ' << m.unit
        << '\n';
  }
  for (const auto& [key, value] : context) {
    out << "context " << key << ' ' << value << '\n';
  }
  out << "attempted " << attempted << "\nfailed " << failed << '\n';
  QGTC_CHECK(static_cast<bool>(out), "cannot write " + path);
}

Report Report::read(const std::string& path) {
  std::ifstream in(path);
  QGTC_CHECK(static_cast<bool>(in), "cannot read " + path);
  Report r;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind, key;
    ls >> kind >> key;
    if (kind == "metric") {
      Metric m;
      ls >> m.value >> m.unit;
      r.metrics[key] = m;
    } else if (kind == "context") {
      std::string value;
      std::getline(ls >> std::ws, value);
      r.context[key] = value;
    } else if (kind == "attempted") {
      r.attempted = std::stoll(key);
    } else if (kind == "failed") {
      r.failed = std::stoll(key);
    }
  }
  return r;
}

// ------------------------------------------------------------ statistics ----

double median(std::vector<double> v) {
  QGTC_CHECK(!v.empty(), "median of no samples");
  return core::percentile(std::move(v), 50.0);
}

double percentile_ms(const std::vector<double>& seconds, double p) {
  return seconds.empty() ? 0.0 : core::percentile(seconds, p) * 1e3;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --------------------------------------------------------------- helpers ----

u64 digest(const MatrixI32& m) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<u64>(m.rows()));
  mix(static_cast<u64>(m.cols()));
  for (i64 i = 0; i < m.size(); ++i) {
    mix(static_cast<u64>(static_cast<u32>(m.data()[i])));
  }
  return h;
}

Replay replay_epoch(const core::QgtcEngine& engine) {
  tcsim::ExecutionContext ctx(engine.config().backend,
                              /*private_counters=*/true);
  const bool streaming = engine.config().mode.streaming();
  Replay r;
  for (i64 i = 0; i < engine.num_batches(); ++i) {
    const core::QgtcEngine::BatchRef bd =
        streaming ? engine.prepare_batch(i, /*build_fp32_csr=*/false)
                  : engine.batch_data()[static_cast<std::size_t>(i)];
    r.digests.push_back(digest(engine.model().forward_prepared(
        bd->adj_tiles, bd->x_planes, /*stats=*/nullptr, &ctx)));
  }
  r.counters = ctx.counters();
  return r;
}

// ---------------------------------------------------------- writer child ----

void write_inputs(const Workload& w, u64 seed, const std::string& dir,
                  bool with_store) {
  const Dataset ds = generate_dataset(dataset_spec(w, seed));
  io::save_dataset_file(dir + "/dataset.bin", ds);
  if (with_store) io::save_dataset_store(dir + "/store", ds);
  if (w.shape == Shape::kStream) {
    // The streaming store engine must reproduce the in-core precomputed
    // engine of the same model on the same data, batch for batch.
    const core::QgtcEngine incore(ds, find_workload("gcn_artist").cfg);
    std::ofstream out(dir + "/incore_digests.txt");
    for (const u64 d : replay_epoch(incore).digests) out << d << '\n';
    QGTC_CHECK(static_cast<bool>(out), "cannot write in-core digests");
  }
}

// -------------------------------------------------- measured epoch child ----

Report measure_epochs(const Workload& w, const std::string& dir,
                      double seconds) {
  Report rep;
  const bool stream = w.shape == Shape::kStream;
  // Input loading is not set-up: a deployment loads once and reuses.
  Dataset ds;
  if (!stream) ds = io::load_dataset_file(dir + "/dataset.bin");

  struct Built {
    std::unique_ptr<store::DatasetStore> st;  // stream only
    std::unique_ptr<core::QgtcEngine> engine;
  };
  std::vector<double> setup_s;
  const std::unique_ptr<Built> built = timed_setups(
      [&] {
        auto b = std::make_unique<Built>();
        if (stream) {
          b->st = std::make_unique<store::DatasetStore>(
              store::DatasetStore::open(dir + "/store", store_options()));
          b->engine = std::make_unique<core::QgtcEngine>(*b->st, w.cfg);
        } else {
          b->engine = std::make_unique<core::QgtcEngine>(ds, w.cfg);
        }
        return b;
      },
      setup_s);
  core::QgtcEngine* engine = built->engine.get();

  const Replay ref = replay_epoch(*engine);
  const i64 batches = engine->num_batches();
  if (stream) {
    const std::vector<u64> incore = read_digests(dir + "/incore_digests.txt");
    rep.attempted += batches;
    for (i64 i = 0; i < batches; ++i) {
      const std::size_t b = static_cast<std::size_t>(i);
      if (b >= incore.size() || incore[b] != ref.digests[b]) ++rep.failed;
    }
  }

  std::vector<double> epoch_s;
  i64 nodes = 0;
  Timer wall;
  while (wall.seconds() < seconds || epoch_s.size() < kMinEpochs) {
    std::vector<MatrixI32> logits;
    const core::EngineStats s = engine->run_quantized(1, &logits);
    epoch_s.push_back(s.forward_seconds);
    nodes = s.nodes;
    const bool counters_ok =
        s.bmma_ops == static_cast<i64>(ref.counters.bmma_ops) &&
        s.tiles_jumped == static_cast<i64>(ref.counters.tiles_jumped);
    i64 bad = 0;
    for (i64 i = 0; i < batches; ++i) {
      const std::size_t b = static_cast<std::size_t>(i);
      if (digest(logits[b]) != ref.digests[b]) ++bad;
    }
    rep.attempted += batches;
    rep.failed += counters_ok ? bad : batches;
  }

  const auto [tail_s, tail_pct] = tail(epoch_s);
  rep.set("setup_s", median(setup_s), "s");
  rep.note("setups", static_cast<double>(setup_s.size()));
  // The best epoch: a shared host's neighbours slow whole runs by up to a
  // third, and the fastest of many epochs is what stays put between runs
  // (README.md, "Noise"); the median and tail are reported alongside.
  rep.set("latency_ms", *std::min_element(epoch_s.begin(), epoch_s.end()) * 1e3,
          "ms");
  rep.note("epochs", static_cast<double>(epoch_s.size()));
  rep.note("p50_ms", median(epoch_s) * 1e3);
  rep.note("tail_ms", tail_s * 1e3);
  rep.note("tail_percentile", tail_pct);
  rep.note("batches", static_cast<double>(batches));
  rep.note("nodes", static_cast<double>(nodes));
  rep.note("workers", static_cast<double>(w.cfg.inter_batch_threads));
  rep.note("prepare_workers",
           static_cast<double>(stream ? w.cfg.mode.prepare_threads : 0));
  return rep;
}

}  // namespace e2e
