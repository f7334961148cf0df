// Observability-layer tests: histogram quantile error bounds against the
// exact core::percentile reference, registry semantics, BoundedQueue
// blocked-time reporting, concurrent span emission under a live exporter
// (the TSan surface), tracing-on/off bit-identity of logits and substrate
// counters on every backend, and Chrome-trace exporter round-trips
// (including the serving span taxonomy the CI smoke run validates).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/serving.hpp"
#include "core/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qgtc {
namespace {

// Worst half-bucket geometric-midpoint error, the bound obs/metrics.hpp
// documents: sqrt(1 + 1/kSubBuckets) - 1 ~ 1.55%.
constexpr double kQuantileRelError = 0.016;

// ------------------------------------------------------------- histogram

TEST(Histogram, BucketMidWithinHalfBucketOfValue) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    // Spread values over many octaves: 1e-6 .. 1e6.
    const double v =
        std::pow(10.0, -6.0 + 12.0 * static_cast<double>(rng.next_float()));
    const double mid = obs::Histogram::bucket_mid(obs::Histogram::bucket_index(v));
    EXPECT_NEAR(mid / v, 1.0, kQuantileRelError + 1e-6)
        << "v=" << v << " mid=" << mid;
  }
}

TEST(Histogram, QuantilesMatchExactPercentileWithinBound) {
  // The satellite's pin: the histogram replaces core::percentile's
  // sort-a-copy on serving paths, so its quantiles must track the exact
  // reduction within the documented relative error.
  Rng rng(23);
  obs::Histogram hist;
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    // Latency-shaped: a lognormal-ish body with a heavy tail.
    const double u = static_cast<double>(rng.next_float());
    const double v = 0.5 + 40.0 * u * u * u * u;  // ms, 0.5 .. 40.5
    xs.push_back(v);
    hist.record(v);
  }
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = core::percentile(xs, p);
    const double approx = hist.percentile(p);
    EXPECT_NEAR(approx / exact, 1.0, 0.03)
        << "p" << p << ": exact=" << exact << " approx=" << approx;
  }
  EXPECT_EQ(hist.count(), 20000);
  // The mean is exact (sum of samples, not bucketed).
  double exact_sum = 0.0;
  for (const double v : xs) exact_sum += v;
  EXPECT_NEAR(hist.mean(), exact_sum / static_cast<double>(xs.size()), 1e-9);
}

TEST(Histogram, QuantileIsMonotoneAndEmptyIsZero) {
  obs::Histogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);
  for (const double v : {3.0, 1.0, 8.0, 2.0, 5.0}) hist.record(v);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double cur = hist.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Histogram, OutOfRangeValuesClampInsteadOfCrashing) {
  obs::Histogram hist;
  hist.record(0.0);
  hist.record(-4.0);
  hist.record(1e300);
  EXPECT_EQ(hist.count(), 3);
  EXPECT_TRUE(std::isfinite(hist.quantile(0.5)));
  hist.reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.sum(), 0.0);
}

// -------------------------------------------------------------- registry

TEST(MetricsRegistry, NamesResolveToStableInstruments) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a = reg.counter("test.obs.counter");
  a.add(3);
  EXPECT_EQ(&reg.counter("test.obs.counter"), &a);
  EXPECT_EQ(reg.counter("test.obs.counter").value(), 3);
  EXPECT_NE(&reg.counter("test.obs.other"), &a);

  reg.gauge("test.obs.gauge").set(2.5);
  EXPECT_EQ(reg.gauge("test.obs.gauge").value(), 2.5);
  reg.histogram("test.obs.hist").record(1.0);
  EXPECT_EQ(reg.histogram("test.obs.hist").count(), 1);

  std::ostringstream json;
  reg.write_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"test.obs.counter\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);

  std::ostringstream human;
  reg.print(human);
  EXPECT_NE(human.str().find("test.obs.gauge"), std::string::npos);
}

// ------------------------------------------- BoundedQueue blocked time

TEST(BoundedQueue, FastPathReportsZeroBlockedTime) {
  core::BoundedQueue<int> q(2);
  double blocked = 123.0;
  EXPECT_TRUE(q.push(1, &blocked));
  EXPECT_EQ(blocked, 0.0);
  blocked = 123.0;
  const std::optional<int> v = q.pop(&blocked);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_EQ(blocked, 0.0);
}

TEST(BoundedQueue, BlockedPopReportsWaitTime) {
  core::BoundedQueue<int> q(2);
  double blocked = 0.0;
  std::optional<int> got;
  std::thread consumer([&] { got = q.pop(&blocked); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(q.push(7));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_GE(blocked, 0.01);  // slept 30 ms before the push
}

TEST(BoundedQueue, BlockedPushReportsWaitTime) {
  core::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  double blocked = 0.0;
  std::thread producer([&] { ASSERT_TRUE(q.push(2, &blocked)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(q.pop().has_value());
  producer.join();
  EXPECT_GE(blocked, 0.01);
}

TEST(BoundedQueue, PopForTimeoutChargesTheWait) {
  core::BoundedQueue<int> q(1);
  int out = 0;
  double blocked = 0.0;
  const auto st = q.pop_for(/*timeout_us=*/20000, out, &blocked);
  EXPECT_EQ(st, core::BoundedQueue<int>::PopStatus::kTimeout);
  EXPECT_GE(blocked, 0.015);
}

// ------------------------------------------------------------ span sink

TEST(SpanSink, DisabledEmissionRecordsNothing) {
  auto& sink = obs::SpanSink::instance();
  sink.disable();
  sink.clear();
  { QGTC_SPAN("test", "noop", {{"k", 1}}); }
  obs::emit_span("test", "noop2", 0, 10);
  EXPECT_EQ(sink.span_count(), 0);
}

TEST(SpanSink, ConcurrentEmittersAndLiveExporter) {
  // The TSan surface: many threads appending spans while a reader snapshots
  // mid-flight. Every committed span must eventually be visible, in
  // start-sorted order, with its args intact.
  auto& sink = obs::SpanSink::instance();
  sink.disable();
  sink.clear();
  sink.enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 3000;  // > kChunkSpans: exercises chunk growth
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        QGTC_SPAN("obs-test", "emit", {{"thread", t}, {"i", i}});
      }
    });
  }
  // Live exporter racing the emitters.
  for (int r = 0; r < 20; ++r) {
    const std::vector<obs::Span> partial = sink.snapshot();
    for (std::size_t i = 1; i < partial.size(); ++i) {
      EXPECT_LE(partial[i - 1].start_ns, partial[i].start_ns);
    }
  }
  for (std::thread& t : emitters) t.join();
  sink.disable();

  const std::vector<obs::Span> all = sink.snapshot();
  i64 ours = 0;
  for (const obs::Span& s : all) {
    if (std::strcmp(s.category, "obs-test") == 0) {
      ++ours;
      ASSERT_EQ(s.nargs, 2u);
      EXPECT_STREQ(s.args[0].key, "thread");
    }
  }
  EXPECT_EQ(ours, static_cast<i64>(kThreads) * kSpansPerThread);
  EXPECT_EQ(sink.span_count(), static_cast<i64>(all.size()));
  sink.clear();
}

TEST(SpanSink, ChromeTraceExportShape) {
  auto& sink = obs::SpanSink::instance();
  sink.disable();
  sink.clear();
  sink.enable();
  obs::emit_span("alpha", "first", 1000, 500, {{"bytes", 42}});
  { QGTC_SPAN("beta", "second"); }
  sink.disable();

  std::ostringstream os;
  sink.export_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\": \"alpha\""), std::string::npos);
  EXPECT_NE(s.find("\"cat\": \"beta\""), std::string::npos);
  EXPECT_NE(s.find("\"bytes\": 42"), std::string::npos);
  // Balanced structure (crude but catches truncation/trailing-comma bugs).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
  sink.clear();
}

// ------------------------------------------- pipeline + serving surface

Dataset obs_dataset() {
  DatasetSpec spec;
  spec.name = "obs-test";
  spec.num_nodes = 1200;
  spec.num_edges = 7200;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  spec.num_clusters = 8;
  spec.seed = 11;
  return generate_dataset(spec);
}

core::EngineConfig obs_config(tcsim::BackendKind backend) {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 8;
  cfg.batch_size = 2;  // 4 streaming batches
  cfg.backend = backend;
  cfg.inter_batch_threads = 2;
  cfg.mode = core::RunMode::streaming_pipeline(/*depth=*/2, /*prepare=*/2);
  return cfg;
}

TEST(Tracing, OnVsOffIsBitIdenticalOnEveryBackend) {
  // The acceptance bar: the tracer observes, never perturbs. Logits and
  // substrate counters must match bit-for-bit with tracing on and off.
  const Dataset ds = obs_dataset();
  auto& sink = obs::SpanSink::instance();
  for (const auto backend : tcsim::all_backends()) {
    sink.disable();
    sink.clear();
    core::QgtcEngine off_engine(ds, obs_config(backend));
    std::vector<MatrixI32> off_logits;
    const core::EngineStats off = off_engine.run_quantized(1, &off_logits);

    sink.enable();
    core::QgtcEngine on_engine(ds, obs_config(backend));
    std::vector<MatrixI32> on_logits;
    const core::EngineStats on = on_engine.run_quantized(1, &on_logits);
    sink.disable();

    EXPECT_EQ(off.bmma_ops, on.bmma_ops);
    EXPECT_EQ(off.tiles_jumped, on.tiles_jumped);
    EXPECT_EQ(off.nodes, on.nodes);
    ASSERT_EQ(off_logits.size(), on_logits.size());
    for (std::size_t b = 0; b < off_logits.size(); ++b) {
      const MatrixI32& x = off_logits[b];
      const MatrixI32& y = on_logits[b];
      ASSERT_EQ(x.rows(), y.rows());
      ASSERT_EQ(x.cols(), y.cols());
      for (i64 r = 0; r < x.rows(); ++r) {
        for (i64 c = 0; c < x.cols(); ++c) {
          ASSERT_EQ(x(r, c), y(r, c))
              << "backend=" << tcsim::backend_name(backend) << " batch=" << b;
        }
      }
    }
    // The traced run actually produced pipeline spans.
    EXPECT_GT(sink.span_count(), 0);
    sink.clear();
  }
}

bool has_category(const std::vector<obs::Span>& spans, const char* cat) {
  for (const obs::Span& s : spans) {
    if (std::strcmp(s.category, cat) == 0) return true;
  }
  return false;
}

TEST(Tracing, StreamingEpochEmitsAllStageCategories) {
  const Dataset ds = obs_dataset();
  auto& sink = obs::SpanSink::instance();
  sink.disable();
  sink.clear();
  sink.enable();
  core::QgtcEngine engine(ds, obs_config(tcsim::default_backend()));
  const core::EngineStats stats = engine.run_quantized(1);
  sink.disable();

  const std::vector<obs::Span> spans = sink.snapshot();
  for (const char* cat : {"prepare", "ship", "compute", "engine", "transfer"}) {
    EXPECT_TRUE(has_category(spans, cat)) << "missing category " << cat;
  }
  // The stage breakdown the spans decompose reached EngineStats too.
  const auto& sb = stats.stage_breakdown;
  EXPECT_GT(sb.prepare.busy_seconds + sb.ship.busy_seconds +
                sb.compute.busy_seconds,
            0.0);
  sink.clear();
}

TEST(Tracing, ServingEmitsFullSpanTaxonomy) {
  // The --serve acceptance criterion, pinned in-tree: a traced serving run
  // covers all of prepare/ship/compute/batcher/request.
  const Dataset ds = obs_dataset();
  auto& sink = obs::SpanSink::instance();
  sink.disable();
  sink.clear();
  sink.enable();
  {
    core::EngineConfig cfg = obs_config(tcsim::default_backend());
    core::ServingPolicy policy;
    policy.max_batch_requests = 4;
    policy.max_wait_us = 200;
    policy.prepare_workers = 2;
    policy.compute_workers = 2;
    core::ServingEngine serving(ds, cfg, policy);
    std::vector<std::future<core::ServingResult>> futures;
    for (int i = 0; i < 16; ++i) {
      core::ServingRequest req;
      req.seeds = {static_cast<i32>(i * 3), static_cast<i32>(i * 3 + 1)};
      req.fanout = 1;
      req.max_nodes = 64;
      futures.push_back(serving.submit(std::move(req)));
    }
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
    serving.stop();
  }
  sink.disable();

  const std::vector<obs::Span> spans = sink.snapshot();
  for (const char* cat : {"prepare", "ship", "compute", "batcher", "request"}) {
    EXPECT_TRUE(has_category(spans, cat)) << "missing category " << cat;
  }
  // Monotonic export order.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
  sink.clear();
}

}  // namespace
}  // namespace qgtc
