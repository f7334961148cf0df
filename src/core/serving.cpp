#include "core/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qgtc::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Emits the stall half of a stage's busy/stall split as a trace span (the
/// interval `blocked` seconds long, ending now).
void stall_span(const char* cat, const char* name, double blocked) {
  if (blocked > 0.0) {
    const u64 dur = static_cast<u64>(blocked * 1e9);
    obs::emit_span(cat, name, obs::SpanSink::now_ns() - dur, dur);
  }
}

/// Folds one busy/stall increment into a stage breakdown under the stats
/// mutex. Called once per micro-batch / queue operation, never per span.
void note_stage(std::mutex& mu, obs::StageBreakdown& stage, double busy,
                double stall) {
  if (busy <= 0.0 && stall <= 0.0) return;
  std::lock_guard lock(mu);
  stage.busy_seconds += busy;
  stage.stall_seconds += stall;
}
}  // namespace

/// One admitted request riding through the pipeline: the expanded ego-graph
/// node set plus the promise the client is waiting on.
struct ServingEngine::Pending {
  ServingRequest req;
  std::vector<i32> nodes;
  std::promise<ServingResult> promise;
  Clock::time_point submitted{};
  u64 submit_ns = 0;         // trace-clock submit stamp (request span start)
  double queue_seconds = 0;  // stamped at dispatch
};

/// A coalesced micro-batch: member requests + the block-diagonal batch they
/// form (one partition per request) + the prepared data the pipeline fills.
struct ServingEngine::MicroBatch {
  std::vector<Pending> members;
  SubgraphBatch batch;
  QgtcEngine::BatchRef bd;
  /// True when bd came out of the engine's BatchCache — the ship stage then
  /// charges resident reuse (zero bytes) instead of packing.
  bool cached = false;
};

ServingEngine::ServingEngine(const Dataset& dataset, EngineConfig cfg,
                             const ServingPolicy& policy)
    : policy_(policy) {
  validate_policy();
  // Streaming mode: the engine calibrates off batch 0 but never materialises
  // an offline epoch — the server's batches are the dynamic micro-batches.
  cfg.mode.epoch = RunMode::Epoch::kStreaming;
  engine_ = std::make_unique<QgtcEngine>(dataset, cfg);
  start(cfg);
}

ServingEngine::ServingEngine(const store::DatasetStore& dstore,
                             EngineConfig cfg, const ServingPolicy& policy)
    : policy_(policy) {
  validate_policy();
  cfg.mode.epoch = RunMode::Epoch::kStreaming;
  engine_ = std::make_unique<QgtcEngine>(dstore, cfg);
  start(cfg);
}

void ServingEngine::validate_policy() const {
  QGTC_CHECK(policy_.max_batch_nodes >= 1 && policy_.max_batch_requests >= 1,
             "micro-batch budgets must be >= 1");
  QGTC_CHECK(policy_.max_wait_us >= 0, "max_wait_us must be non-negative");
  QGTC_CHECK(policy_.prepare_workers >= 1 && policy_.compute_workers >= 1,
             "stage worker counts must be >= 1");
  QGTC_CHECK(policy_.admission_capacity >= 1 && policy_.queue_depth >= 1,
             "queue capacities must be >= 1");
}

void ServingEngine::start(const EngineConfig& cfg) {
  admission_ = std::make_unique<BoundedQueue<Pending>>(
      static_cast<std::size_t>(policy_.admission_capacity));
  prep_q_ = std::make_unique<BoundedQueue<MicroBatch>>(
      static_cast<std::size_t>(policy_.queue_depth));
  ship_q_ = std::make_unique<BoundedQueue<MicroBatch>>(
      static_cast<std::size_t>(policy_.queue_depth));
  compute_q_ = std::make_unique<BoundedQueue<MicroBatch>>(
      static_cast<std::size_t>(policy_.queue_depth));

  for (int w = 0; w < policy_.compute_workers; ++w) {
    sessions_.emplace_back(cfg.backend, /*private_counters=*/true);
  }

  batcher_ = std::thread([this] { batcher_loop(); });
  preparers_.reserve(static_cast<std::size_t>(policy_.prepare_workers));
  for (int p = 0; p < policy_.prepare_workers; ++p) {
    preparers_.emplace_back([this] { prepare_loop(); });
  }
  shipper_ = std::thread([this] { ship_loop(); });
  computers_.reserve(static_cast<std::size_t>(policy_.compute_workers));
  for (int w = 0; w < policy_.compute_workers; ++w) {
    computers_.emplace_back([this, w] { compute_loop(static_cast<std::size_t>(w)); });
  }
  started_ = true;
}

ServingEngine::~ServingEngine() { stop(); }

std::future<ServingResult> ServingEngine::submit(ServingRequest req) {
  Pending p;
  p.submitted = Clock::now();
  p.submit_ns = obs::SpanSink::now_ns();
  std::future<ServingResult> fut = p.promise.get_future();
  {
    std::lock_guard lock(lifecycle_mu_);
    if (stopped_) throw std::runtime_error("ServingEngine is stopped");
  }
  // Admission-time expansion: a bad request fails its own future here, long
  // before it could poison a micro-batch.
  try {
    p.nodes = expand_ego(engine_->graph(), req.seeds, req.fanout,
                         req.max_nodes);
  } catch (...) {
    p.promise.set_exception(std::current_exception());
    return fut;
  }
  p.req = std::move(req);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.requests_admitted;
  }
  if (!admission_->push(std::move(p))) {
    // Raced with stop(): push() refuses without consuming the item.
    p.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("ServingEngine stopped during admission")));
  }
  return fut;
}

ServingResult ServingEngine::infer(ServingRequest req) {
  return submit(std::move(req)).get();
}

void ServingEngine::stop() {
  {
    std::lock_guard lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // Ordered drain: close each queue only after its producers have joined, so
  // every admitted request still flows through to its promise.
  admission_->close();
  batcher_.join();  // closes prep_q_ after flushing the partial batch
  for (std::thread& t : preparers_) t.join();
  ship_q_->close();
  shipper_.join();
  compute_q_->close();
  for (std::thread& t : computers_) t.join();
}

ServingStats ServingEngine::stats() const {
  ServingStats s;
  {
    std::lock_guard lock(stats_mu_);
    s = stats_;
  }
  for (const api::Session& session : sessions_) {
    const tcsim::Counters c = session.counters();
    s.bmma_ops += static_cast<i64>(c.bmma_ops);
    s.tiles_jumped += static_cast<i64>(c.tiles_jumped);
  }
  return s;
}

void ServingEngine::fail_batch(MicroBatch& batch,
                               const std::exception_ptr& err) {
  for (Pending& p : batch.members) p.promise.set_exception(err);
  std::lock_guard lock(stats_mu_);
  stats_.requests_failed += static_cast<i64>(batch.members.size());
}

void ServingEngine::dispatch(MicroBatch&& batch, bool timed_out) {
  const Clock::time_point now = Clock::now();
  batch.batch.part_bounds.assign(1, 0);
  batch.batch.nodes.clear();
  for (Pending& p : batch.members) {
    batch.batch.nodes.insert(batch.batch.nodes.end(), p.nodes.begin(),
                             p.nodes.end());
    batch.batch.part_bounds.push_back(
        static_cast<i64>(batch.batch.nodes.size()));
    p.queue_seconds = std::chrono::duration<double>(now - p.submitted).count();
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.batches_dispatched;
    stats_.batch_nodes_total += batch.batch.size();
    ++(timed_out ? stats_.dispatches_timeout : stats_.dispatches_full);
  }
  // Batch-occupancy distributions (the coalescing dial's feedback signal).
  static obs::Histogram& batch_req_hist =
      obs::MetricsRegistry::instance().histogram("serving.batch_requests");
  static obs::Histogram& batch_nodes_hist =
      obs::MetricsRegistry::instance().histogram("serving.batch_nodes");
  batch_req_hist.record(static_cast<double>(batch.members.size()));
  batch_nodes_hist.record(static_cast<double>(batch.batch.size()));
  double push_blocked = 0.0;
  const bool pushed = prep_q_->push(std::move(batch), &push_blocked);
  stall_span("batcher", "stall.push", push_blocked);
  note_stage(stats_mu_, stats_.batcher_stage, 0.0, push_blocked);
  if (!pushed) {
    fail_batch(batch, std::make_exception_ptr(std::runtime_error(
                          "ServingEngine pipeline shut down mid-dispatch")));
  }
}

void ServingEngine::batcher_loop() {
  MicroBatch cur;
  i64 cur_nodes = 0;
  Clock::time_point oldest{};
  const auto flush = [&](bool timed_out) {
    if (cur.members.empty()) return;
    // The coalesce window: first member's submit stamp to dispatch. This is
    // the batcher's "busy" time — an open micro-batch accumulating members —
    // and the span the latency dial (max_wait_us) is tuned against.
    const u64 open_ns = cur.members.front().submit_ns;
    const u64 now_ns = obs::SpanSink::now_ns();
    const u64 window_ns = now_ns > open_ns ? now_ns - open_ns : 0;
    obs::emit_span("batcher", "coalesce", now_ns - window_ns, window_ns,
                   {{"nodes", cur_nodes},
                    {"requests", static_cast<i64>(cur.members.size())},
                    {"timed_out", timed_out ? 1 : 0}});
    note_stage(stats_mu_, stats_.batcher_stage,
               static_cast<double>(window_ns) * 1e-9, 0.0);
    dispatch(std::move(cur), timed_out);
    cur = MicroBatch{};
    cur_nodes = 0;
  };

  for (;;) {
    Pending p;
    if (cur.members.empty()) {
      // Nothing pending: block until a request (or shutdown) arrives. The
      // blocked time is the batcher's idle stall — no open batch, no work.
      double blocked = 0.0;
      std::optional<Pending> item = admission_->pop(&blocked);
      stall_span("batcher", "stall.pop", blocked);
      note_stage(stats_mu_, stats_.batcher_stage, 0.0, blocked);
      if (!item.has_value()) break;
      p = std::move(*item);
    } else {
      // A partial batch is open: wait at most the oldest member's remaining
      // max_wait budget, then dispatch what we have.
      const i64 waited_us = static_cast<i64>(seconds_since(oldest) * 1e6);
      const i64 remaining_us = policy_.max_wait_us - waited_us;
      if (remaining_us <= 0) {
        flush(/*timed_out=*/true);
        continue;
      }
      const auto st = admission_->pop_for(remaining_us, p);
      if (st == BoundedQueue<Pending>::PopStatus::kTimeout) {
        flush(/*timed_out=*/true);
        continue;
      }
      if (st == BoundedQueue<Pending>::PopStatus::kClosed) break;
    }

    const i64 n = static_cast<i64>(p.nodes.size());
    // Close the open batch first if this request would overflow it. A single
    // request larger than max_batch_nodes still dispatches — alone.
    if (!cur.members.empty() &&
        (cur_nodes + n > policy_.max_batch_nodes ||
         static_cast<i64>(cur.members.size()) >= policy_.max_batch_requests)) {
      flush(/*timed_out=*/false);
    }
    if (cur.members.empty()) oldest = p.submitted;
    cur_nodes += n;
    cur.members.push_back(std::move(p));
    if (cur_nodes >= policy_.max_batch_nodes ||
        static_cast<i64>(cur.members.size()) >= policy_.max_batch_requests) {
      flush(/*timed_out=*/false);
    }
  }
  flush(/*timed_out=*/false);  // shutdown: the partial batch still completes
  prep_q_->close();
}

void ServingEngine::prepare_loop() {
  for (;;) {
    double blocked = 0.0;
    std::optional<MicroBatch> mb = prep_q_->pop(&blocked);
    stall_span("prepare", "stall.pop", blocked);
    note_stage(stats_mu_, stats_.prepare_stage, 0.0, blocked);
    if (!mb.has_value()) break;
    Timer body;
    try {
      // The offline prepare path, verbatim: prepare_batch_data +
      // QgtcModel::prepare_input over the dynamic micro-batch.
      obs::SpanScope span("prepare", "microbatch",
                          {{"nodes", mb->batch.size()},
                           {"requests", static_cast<i64>(mb->members.size())}});
      mb->bd = engine_->prepare_subgraph(mb->batch, /*build_fp32_csr=*/false,
                                         &mb->cached);
      span.arg("cache_hit", mb->cached ? 1 : 0);
    } catch (...) {
      note_stage(stats_mu_, stats_.prepare_stage, body.seconds(), 0.0);
      fail_batch(*mb, std::current_exception());
      continue;
    }
    note_stage(stats_mu_, stats_.prepare_stage, body.seconds(), 0.0);
    double push_blocked = 0.0;
    const bool pushed = ship_q_->push(std::move(*mb), &push_blocked);
    stall_span("prepare", "stall.push", push_blocked);
    note_stage(stats_mu_, stats_.prepare_stage, 0.0, push_blocked);
    if (!pushed) {
      fail_batch(*mb, std::make_exception_ptr(std::runtime_error(
                          "ServingEngine pipeline shut down mid-prepare")));
    }
  }
}

void ServingEngine::ship_loop() {
  for (;;) {
    double blocked = 0.0;
    std::optional<MicroBatch> mb = ship_q_->pop(&blocked);
    stall_span("ship", "stall.pop", blocked);
    note_stage(stats_mu_, stats_.ship_stage, 0.0, blocked);
    if (!mb.has_value()) break;
    Timer body;
    try {
      obs::SpanScope span("ship", "microbatch",
                          {{"nodes", mb->batch.size()},
                           {"requests", static_cast<i64>(mb->members.size())}});
      // A cache hit means the prepared payload is already device-resident:
      // nothing to pack, nothing on the wire.
      const transfer::PackedSubgraph packed =
          mb->cached ? transfer::resident_reuse()
                     : pack_prepared_batch(*mb->bd, ring_.next(), pcie_);
      span.arg("bytes", packed.total_bytes);
      std::lock_guard lock(stats_mu_);
      stats_.packed_bytes += packed.total_bytes;
      stats_.wire_seconds += packed.modeled_seconds;
      if (packed.transfers == 0) ++stats_.resident_reuse_batches;
      stats_.ship_stage.busy_seconds += body.seconds();
    } catch (...) {
      note_stage(stats_mu_, stats_.ship_stage, body.seconds(), 0.0);
      fail_batch(*mb, std::current_exception());
      continue;
    }
    double push_blocked = 0.0;
    const bool pushed = compute_q_->push(std::move(*mb), &push_blocked);
    stall_span("ship", "stall.push", push_blocked);
    note_stage(stats_mu_, stats_.ship_stage, 0.0, push_blocked);
    if (!pushed) {
      fail_batch(*mb, std::make_exception_ptr(std::runtime_error(
                          "ServingEngine pipeline shut down mid-ship")));
    }
  }
}

void ServingEngine::compute_loop(std::size_t worker) {
  const api::Session& session = sessions_[worker];
  // Client-visible latency distribution, recorded at completion — the
  // `--metrics` dump and the load generator's percentile source.
  obs::Histogram& latency_ms =
      obs::MetricsRegistry::instance().histogram("serving.request_latency_ms");
  for (;;) {
    double blocked = 0.0;
    std::optional<MicroBatch> mb = compute_q_->pop(&blocked);
    stall_span("compute", "stall.pop", blocked);
    note_stage(stats_mu_, stats_.compute_stage, 0.0, blocked);
    if (!mb.has_value()) break;
    Timer body;
    try {
      const QgtcEngine::BatchData& bd = *mb->bd;
      MatrixI32 logits;
      {
        QGTC_SPAN("compute", "microbatch",
                  {{"nodes", mb->batch.size()},
                   {"requests", static_cast<i64>(mb->members.size())},
                   {"worker", static_cast<i64>(worker)}});
        logits = engine_->model().forward_prepared(
            bd.adj_tiles, bd.x_planes, /*stats=*/nullptr, &session.context());
      }
      const Clock::time_point done = Clock::now();
      const u64 done_ns = obs::SpanSink::now_ns();
      for (std::size_t m = 0; m < mb->members.size(); ++m) {
        Pending& p = mb->members[m];
        const i64 r0 = mb->batch.part_bounds[m];
        const i64 r1 = mb->batch.part_bounds[m + 1];
        ServingResult res;
        res.nodes = std::move(p.nodes);
        res.logits = MatrixI32(r1 - r0, logits.cols());
        for (i64 r = r0; r < r1; ++r) {
          const auto src = logits.row(r);
          std::copy(src.begin(), src.end(), res.logits.row(r - r0).begin());
        }
        res.batch_nodes = mb->batch.size();
        res.batch_requests = static_cast<i64>(mb->members.size());
        res.timing.queue_seconds = p.queue_seconds;
        res.timing.total_seconds =
            std::chrono::duration<double>(done - p.submitted).count();
        // The request's whole lifecycle — admission through completion — as
        // one span: the client-latency bar the stage spans decompose.
        obs::emit_span("request", "lifecycle", p.submit_ns,
                       done_ns > p.submit_ns ? done_ns - p.submit_ns : 0,
                       {{"queue_us", static_cast<i64>(p.queue_seconds * 1e6)},
                        {"batch_nodes", res.batch_nodes},
                        {"batch_requests", res.batch_requests}});
        latency_ms.record(res.timing.total_seconds * 1e3);
        p.promise.set_value(std::move(res));
      }
      std::lock_guard lock(stats_mu_);
      stats_.requests_completed += static_cast<i64>(mb->members.size());
      stats_.compute_stage.busy_seconds += body.seconds();
    } catch (...) {
      note_stage(stats_mu_, stats_.compute_stage, body.seconds(), 0.0);
      fail_batch(*mb, std::current_exception());
    }
  }
}

LoadReport run_poisson_load(ServingEngine& serving, const LoadSpec& spec) {
  QGTC_CHECK(spec.num_requests >= 1, "load spec needs at least one request");
  QGTC_CHECK(spec.target_qps > 0, "target_qps must be positive");
  QGTC_CHECK(spec.seeds_per_request >= 1, "need at least one seed per request");
  const i64 n = serving.engine().graph().num_nodes();
  QGTC_CHECK(n >= spec.seeds_per_request,
             "dataset smaller than seeds_per_request");

  Rng rng(spec.seed);
  std::vector<std::future<ServingResult>> futures;
  futures.reserve(static_cast<std::size_t>(spec.num_requests));

  // Open loop: arrival times are fixed up front by the Poisson process and
  // honoured regardless of completions, so queueing delay shows up in the
  // tail instead of being absorbed by a self-throttling client.
  Timer wall;
  double next_arrival = 0.0;
  for (i64 i = 0; i < spec.num_requests; ++i) {
    next_arrival +=
        -std::log(1.0 - static_cast<double>(rng.next_float())) /
        spec.target_qps;
    while (wall.seconds() < next_arrival) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    ServingRequest req;
    req.fanout = spec.fanout;
    req.max_nodes = spec.max_nodes;
    req.seeds.reserve(static_cast<std::size_t>(spec.seeds_per_request));
    while (static_cast<int>(req.seeds.size()) < spec.seeds_per_request) {
      const i32 s = static_cast<i32>(rng.next_below(static_cast<u64>(n)));
      bool dup = false;
      for (const i32 t : req.seeds) dup = dup || (t == s);
      if (!dup) req.seeds.push_back(s);
    }
    futures.push_back(serving.submit(std::move(req)));
  }

  LoadReport rep;
  rep.offered_qps = spec.target_qps;
  // Latencies reduce through the fixed-bucket histogram (≤ ~1.6% relative
  // quantile error, see obs/metrics.hpp) instead of core::percentile's
  // sort-a-copy — constant memory regardless of num_requests.
  obs::Histogram latencies_ms;
  double batch_requests_sum = 0;
  for (std::future<ServingResult>& f : futures) {
    try {
      const ServingResult res = f.get();
      latencies_ms.record(res.timing.total_seconds * 1e3);
      batch_requests_sum += static_cast<double>(res.batch_requests);
      ++rep.completed;
    } catch (...) {
      ++rep.failed;
    }
  }
  rep.wall_seconds = wall.seconds();
  rep.sustained_qps =
      rep.wall_seconds > 0 ? static_cast<double>(rep.completed) / rep.wall_seconds : 0;
  rep.p50_ms = latencies_ms.percentile(50.0);
  rep.p99_ms = latencies_ms.percentile(99.0);
  rep.p999_ms = latencies_ms.percentile(99.9);
  rep.mean_batch_requests =
      rep.completed > 0 ? batch_requests_sum / static_cast<double>(rep.completed) : 0;
  return rep;
}

}  // namespace qgtc::core
