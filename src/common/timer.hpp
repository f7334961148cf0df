// Wall-clock timing helpers used by the benchmark harness and engine stats.
#pragma once

#include <algorithm>
#include <chrono>

namespace qgtc {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Runs `fn` repeatedly until at least `min_seconds` elapse (and at least
/// `min_iters` iterations run); returns the MINIMUM seconds per iteration.
/// Min-of-N is robust against scheduler and frequency-scaling noise on
/// shared hosts, which mean-based timing is not.
template <typename Fn>
double time_it(Fn&& fn, double min_seconds = 0.2, int min_iters = 3) {
  // Warm-up run so first-touch page faults don't pollute the measurement.
  fn();
  Timer total;
  double best = 1e300;
  int iters = 0;
  do {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
    ++iters;
  } while (total.seconds() < min_seconds || iters < min_iters);
  return best;
}

}  // namespace qgtc
