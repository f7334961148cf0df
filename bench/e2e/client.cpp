// Serving clients (open loop, fan-out bursts) and the measured serving child.
#include "client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "e2e.hpp"
#include "graph/io.hpp"

namespace e2e {

using namespace qgtc;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Sleeps to just before `due`, then spins: a plain sleep overshoots by the
/// timer slack, which would read as generator lag.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(50);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// Rows match the ego-graph, the seeds come first, the node cap holds.
bool valid(const core::ServingRequest& req, const core::ServingResult& res,
           i64 out_dim) {
  if (res.logits.rows() != static_cast<i64>(res.nodes.size()) ||
      res.logits.cols() != out_dim || res.nodes.size() < req.seeds.size() ||
      static_cast<i64>(res.nodes.size()) > req.max_nodes) {
    return false;
  }
  for (std::size_t i = 0; i < req.seeds.size(); ++i) {
    if (res.nodes[i] != req.seeds[i]) return false;
  }
  return true;
}

/// Resolves one future into `r`; `lag` is the open-loop send delay (0 in a
/// burst, whose requests are sent at once).
void collect(PhaseResult& r, const core::ServingRequest& req,
             std::future<core::ServingResult>& fut, double lag, i64 out_dim) {
  ++r.attempted;
  try {
    const core::ServingResult res = fut.get();
    if (!valid(req, res, out_dim)) {
      ++r.failed;
      return;
    }
    r.latency_s.push_back(lag + res.timing.total_seconds);
    r.queue_s.push_back(res.timing.queue_seconds);
    r.batch_requests_sum += static_cast<double>(res.batch_requests);
  } catch (...) {
    ++r.failed;
  }
}

}  // namespace

std::vector<core::ServingRequest> make_requests(i64 num_nodes, i64 count,
                                                u64 seed) {
  const core::LoadSpec shape;
  const std::size_t seeds = static_cast<std::size_t>(shape.seeds_per_request);
  QGTC_CHECK(num_nodes >= shape.seeds_per_request,
             "graph too small for the request shape");
  Rng rng(seed);
  std::vector<core::ServingRequest> reqs(static_cast<std::size_t>(count));
  for (core::ServingRequest& req : reqs) {
    req.fanout = shape.fanout;
    req.max_nodes = shape.max_nodes;
    while (req.seeds.size() < seeds) {
      const i32 s =
          static_cast<i32>(rng.next_below(static_cast<u64>(num_nodes)));
      if (std::find(req.seeds.begin(), req.seeds.end(), s) == req.seeds.end()) {
        req.seeds.push_back(s);
      }
    }
  }
  return reqs;
}

std::vector<double> poisson_schedule(double qps, i64 count, u64 seed) {
  Rng rng(seed);
  std::vector<double> due(static_cast<std::size_t>(count));
  double t = 0;
  for (double& d : due) {
    t += -std::log(1.0 - static_cast<double>(rng.next_float())) / qps;
    d = t;
  }
  return due;
}

PhaseResult run_open_loop(core::ServingEngine& srv,
                          const std::vector<core::ServingRequest>& reqs,
                          const std::vector<double>& due_s) {
  QGTC_CHECK(reqs.size() == due_s.size(), "one due time per request");
  const i64 out_dim = srv.engine().config().model.out_dim;
  PhaseResult r;
  std::vector<std::future<core::ServingResult>> futs;
  futs.reserve(reqs.size());
  r.lag_s.reserve(reqs.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[i]));
    wait_until(due);
    r.lag_s.push_back(secs(Clock::now() - due));
    futs.push_back(srv.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    collect(r, reqs[i], futs[i], r.lag_s[i], out_dim);
  }
  r.wall_s = secs(Clock::now() - t0);
  return r;
}

PhaseResult run_bursts(core::ServingEngine& srv,
                       const std::vector<core::ServingRequest>& reqs,
                       int burst, double seconds) {
  QGTC_CHECK(!reqs.empty() && burst >= 1, "bursts need requests");
  const i64 out_dim = srv.engine().config().model.out_dim;
  PhaseResult r;
  std::vector<std::pair<std::size_t, std::future<core::ServingResult>>> futs;
  std::size_t next = 0;
  Timer t;
  do {
    futs.clear();
    Timer one;
    for (int i = 0; i < burst; ++i, next = (next + 1) % reqs.size()) {
      futs.emplace_back(next, srv.submit(reqs[next]));
    }
    for (auto& [idx, fut] : futs) collect(r, reqs[idx], fut, 0.0, out_dim);
    r.burst_s.push_back(one.seconds());
  } while (t.seconds() < seconds);
  r.wall_s = t.seconds();
  return r;
}

double dispatch_share(const core::ServingStats& from,
                      const core::ServingStats& to,
                      i64 core::ServingStats::*cause) {
  const i64 batches = to.batches_dispatched - from.batches_dispatched;
  return static_cast<double>(to.*cause - from.*cause) /
         static_cast<double>(std::max<i64>(1, batches));
}

// ------------------------------------------------ measured serving child ----

Report measure_serving(const Workload& w, const std::string& dir,
                       double seconds, u64 seed) {
  Report rep;
  const Dataset ds = io::load_dataset_file(dir + "/dataset.bin");
  const core::ServingPolicy policy = serving_policy();

  std::vector<double> setup_s;
  const std::unique_ptr<core::ServingEngine> served = timed_setups(
      [&] { return std::make_unique<core::ServingEngine>(ds, w.cfg, policy); },
      setup_s);
  core::ServingEngine& srv = *served;
  const i64 n = ds.graph.num_nodes();
  const auto tally = [&rep](const PhaseResult& p) {
    rep.attempted += p.attempted;
    rep.failed += p.failed;
  };

  // One full micro-batch per burst: its requests are submitted inside
  // max_wait_us, so the batcher dispatches on max_batch_requests.
  const int burst = static_cast<int>(policy.max_batch_requests);
  tally(run_bursts(srv, make_requests(n, 256, seed ^ 0x11), burst,
                   0.1 * seconds));
  const core::ServingStats before = srv.stats();
  const PhaseResult full = run_bursts(srv, make_requests(n, 4096, seed ^ 0x44),
                                      burst, 0.45 * seconds);
  const core::ServingStats after = srv.stats();
  tally(full);

  // Open loop at fixed shares of the burst capacity: single requests trickle
  // in, so the batcher dispatches on max_wait_us.
  const auto open_phase = [&](double share, double phase_s, u64 salt) {
    const double qps = share * kServeCapacityQps;
    const i64 count = std::max<i64>(1, std::llround(qps * phase_s));
    const PhaseResult p =
        run_open_loop(srv, make_requests(n, count, seed ^ salt),
                      poisson_schedule(qps, count, seed ^ (salt << 8)));
    tally(p);
    return p;
  };
  const PhaseResult low = open_phase(kLowLoadShare, 0.2 * seconds, 0x22);
  const PhaseResult high = open_phase(kHighLoadShare, 0.25 * seconds, 0x33);
  srv.stop();

  QGTC_CHECK(!full.burst_s.empty() && !low.latency_s.empty() &&
                 !high.latency_s.empty(),
             "no request completed");
  rep.set("setup_s", median(setup_s), "s");
  rep.note("setups", static_cast<double>(setup_s.size()));
  // The best burst, for the reason latency_ms is the best epoch elsewhere
  // (README.md, "Noise"); request percentiles are reported alongside.
  rep.set("latency_ms",
          *std::min_element(full.burst_s.begin(), full.burst_s.end()) * 1e3,
          "ms");
  for (const auto& [phase, p] :
       {std::pair{"burst", &full}, {"low", &low}, {"high", &high}}) {
    const std::string pre = phase;
    rep.note(pre + "_requests", static_cast<double>(p->attempted));
    rep.note(pre + "_p50_ms", percentile_ms(p->latency_s, 50));
    rep.note(pre + "_p99_ms", percentile_ms(p->latency_s, 99));
    rep.note(pre + "_mean_batch_requests",
             p->batch_requests_sum / static_cast<double>(p->completed()));
  }
  rep.note("burst_requests_per_burst", burst);
  rep.note("burst_capacity_qps",
           static_cast<double>(full.completed()) / full.wall_s);
  rep.note("burst_full_dispatch_frac",
           dispatch_share(before, after, &core::ServingStats::dispatches_full));
  rep.note("low_qps", kLowLoadShare * kServeCapacityQps);
  rep.note("high_qps", kHighLoadShare * kServeCapacityQps);
  rep.note("low_lag_p99_ms", percentile_ms(low.lag_s, 99));
  rep.note("high_lag_p99_ms", percentile_ms(high.lag_s, 99));
  rep.note("prepare_workers", policy.prepare_workers);
  rep.note("workers", policy.compute_workers);
  return rep;
}

}  // namespace e2e
