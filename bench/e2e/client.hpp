// Bench-side serving client. Open-loop latency runs from each request's
// *scheduled* send time, so a submit() that blocks on admission backpressure
// delays later requests and that delay is counted; percentiles are exact,
// from the raw samples.
#pragma once

#include <vector>

#include "core/serving.hpp"

namespace e2e {

/// Requests of the library's default load shape (`core::LoadSpec`, the one
/// `run_poisson_load` and qgtc_cli --serve use): 4 distinct random seeds,
/// 1-hop ego graph, at most 512 nodes.
std::vector<qgtc::core::ServingRequest> make_requests(qgtc::i64 num_nodes,
                                                      qgtc::i64 count,
                                                      qgtc::u64 seed);

/// Poisson arrival offsets (seconds from phase start) at `qps`.
std::vector<double> poisson_schedule(double qps, qgtc::i64 count,
                                     qgtc::u64 seed);

struct PhaseResult {
  std::vector<double> latency_s;  // open loop: due time -> result ready
  std::vector<double> lag_s;      // open loop: submit() call - due time
  std::vector<double> queue_s;    // RequestTiming::queue_seconds
  std::vector<double> burst_s;    // bursts: first submit -> last result
  qgtc::i64 attempted = 0;
  qgtc::i64 failed = 0;  // future threw, or the result failed validation
  double batch_requests_sum = 0;
  double wall_s = 0;

  [[nodiscard]] qgtc::i64 completed() const { return attempted - failed; }
};

/// Submits reqs[i] at due_s[i] regardless of completions.
PhaseResult run_open_loop(qgtc::core::ServingEngine& srv,
                          const std::vector<qgtc::core::ServingRequest>& reqs,
                          const std::vector<double>& due_s);

/// Submits `burst` requests back to back, waits for all of them, and repeats
/// for `seconds`.
PhaseResult run_bursts(qgtc::core::ServingEngine& srv,
                       const std::vector<qgtc::core::ServingRequest>& reqs,
                       int burst, double seconds);

/// Share of the micro-batches dispatched between the snapshots `from` and
/// `to` that `cause` (dispatches_full or dispatches_timeout) counts.
double dispatch_share(const qgtc::core::ServingStats& from,
                      const qgtc::core::ServingStats& to,
                      qgtc::i64 qgtc::core::ServingStats::*cause);

}  // namespace e2e
