// Named counter / gauge / histogram registry — the "metrics endpoint" half
// of the observability layer (spans are the other half, obs/trace.hpp).
//
// The histogram is fixed log2-bucket (HdrHistogram-style: 32 linear
// sub-buckets per power of two), so p50/p99/p99.9 come from a cumulative
// bucket walk without retaining samples — replacing the sort-a-copy
// `core::percentile` path on the serving hot loop. Reporting each bucket's
// geometric midpoint bounds the quantile relative error by the worst
// half-bucket, at the bottom of an octave:
//   |q_hist - q_exact| / q_exact  <=  sqrt(1 + 1/32) - 1  (~1.6%)
// for any value inside the bucketed range (pinned by tests/test_obs.cpp).
//
// All recording paths are lock-free (relaxed atomic adds); registry lookup
// takes a mutex, so callers on hot paths resolve their instruments once and
// keep the reference (references are stable for the registry's lifetime).
#pragma once

#include <atomic>
#include <cmath>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/defs.hpp"

namespace qgtc::obs {

/// Monotonic counter (events, bytes, batches).
class Counter {
 public:
  void add(i64 delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] i64 value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, resident bytes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log2-bucket histogram over positive doubles (latencies, sizes).
/// record() is wait-free: frexp + two relaxed atomic adds. Negative and zero
/// values clamp into the lowest bucket; values above the range clamp into
/// the highest (both far outside any latency/bytes series we record).
class Histogram {
 public:
  /// Linear sub-buckets per power of two: worst relative bucket width
  /// 1/32 ~ 3.1% (octave bottom), quantile error via the bucket geometric
  /// midpoint <= sqrt(1 + 1/32) - 1 ~ 1.6%.
  static constexpr int kSubBuckets = 32;
  /// Bucketed exponent range: [2^kMinExp, 2^kMaxExp) covers 1e-12 .. 1e12 —
  /// nanoseconds-to-hours in either seconds or milliseconds units.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  void record(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] i64 count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const i64 n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }

  /// The q-quantile (q in [0, 1]) as the geometric midpoint of the bucket
  /// holding the rank-floor(q*(n-1)) sample. 0 for an empty histogram.
  /// Monotone in q by construction.
  [[nodiscard]] double quantile(double q) const;

  /// p in [0, 100] — drop-in for the core::percentile call shape.
  [[nodiscard]] double percentile(double p) const { return quantile(p / 100.0); }

  void reset();

  /// Maps v to its bucket (exposed for the error-bound unit test).
  static int bucket_index(double v);
  /// Geometric midpoint of bucket b — the value quantile() reports.
  static double bucket_mid(int b);

 private:
  std::atomic<i64> buckets_[kBuckets] = {};
  std::atomic<i64> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Accumulated busy-vs-stall wall time of one pipeline stage (or one stage
/// worker): `busy` is time inside the stage body, `stall` is time blocked on
/// inter-stage queues — the decomposition every stage of the streaming
/// pipeline and the serving loop reports, and the signal that says which
/// stage to staff or deepen.
struct StageBreakdown {
  double busy_seconds = 0;
  double stall_seconds = 0;

  StageBreakdown& operator+=(const StageBreakdown& o) {
    busy_seconds += o.busy_seconds;
    stall_seconds += o.stall_seconds;
    return *this;
  }};

/// Process-wide named-instrument registry. Lookup is mutex-guarded and
/// returns stable references; recording through a resolved reference is
/// lock-free. Instruments live for the registry's lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Human-readable dump (name  value / count+mean+p50/p99/p999 rows),
  /// sorted by name. Skips never-touched instruments' empty quantiles.
  void print(std::ostream& os) const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;

  /// Zeroes every registered instrument (names stay registered) — bench and
  /// test isolation between phases.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace qgtc::obs
