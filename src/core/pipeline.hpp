// The staged executor (paper §4.6 / §6 deployed as a pipeline): the one
// prepare -> ship -> compute loop behind precomputed epochs, streaming epochs
// and online serving —
//
//   source --> prepare (P workers) --[BoundedQueue, depth]--> ship (1 worker)
//        --[BoundedQueue, depth]--> compute (C workers)
//
// The *source* hands out work: a closed queue of batch indices for an epoch
// (run_stream_epoch), or the serving batcher's micro-batch queue. *prepare*
// builds an item's data (in precomputed epochs: a lookup of the batch built
// at construction), *ship* packs it into a double-buffered StagingRing slot
// and charges the PcieModel inline (or returns transfer::resident_reuse() for
// a payload already on the device), *compute* runs the quantized forward
// pass. Peak resident memory is O(depth) prepared items instead of O(epoch):
// a full queue blocks the producers until compute drains.
//
// The GPU analogy (see DESIGN.md substitution table): prepare workers are
// the host-side DataLoader threads, the ship worker is the copy engine
// feeding pinned buffers, compute workers are the device streams. Overlap
// accounting replays an epoch on a two-engine timeline (serial copy engine,
// serial compute engine) to report the modelled wire time that was NOT
// hidden behind compute (`exposed_transfer_seconds`).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "transfer/packing.hpp"

namespace qgtc::core {

/// Bounded multi-producer / multi-consumer queue connecting pipeline stages.
/// push() blocks while the queue is full; pop() blocks while it is empty.
/// close() ends the stream: pops drain the remaining items, then return
/// nullopt. abort() additionally drops pending items and fails in-flight
/// pushes — the shutdown-on-exception path, so a throwing stage never leaves
/// a peer blocked on a queue that will not move again.
///
/// Every blocking entry point reports the time it actually spent blocked
/// through an optional `blocked_seconds` out-param (0.0 on the uncontended
/// fast path, which skips the clock reads entirely): the stall half of every
/// stage's busy-vs-stall decomposition.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    QGTC_CHECK(capacity >= 1, "queue capacity must be >= 1");
  }

  /// False when the queue was closed/aborted before the item went in.
  /// `blocked_seconds` (optional) receives the time spent waiting for space.
  bool push(T&& v, double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.size() >= cap_ && !closed_) {
      const Timer t;
      not_full_.wait(lock, [&] { return items_.size() < cap_ || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
    }
    if (closed_) return false;
    items_.push_back(std::move(v));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Outcome of a timed pop: an item, a timeout (queue still live), or the
  /// end of the stream (closed and drained / aborted).
  enum class PopStatus { kItem, kTimeout, kClosed };

  /// pop() with a deadline: waits up to `timeout_us` for an item, writing it
  /// into `out` on success. kTimeout means the queue is still open but
  /// nothing arrived in time — the serving batcher's max-wait dispatch edge.
  /// `blocked_seconds` receives the wait time (including a full timeout).
  PopStatus pop_for(i64 timeout_us, T& out, double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.empty() && !closed_) {
      const Timer t;
      const bool ready =
          not_empty_.wait_for(lock, std::chrono::microseconds(timeout_us),
                              [&] { return !items_.empty() || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
      if (!ready) return PopStatus::kTimeout;
    }
    if (items_.empty()) return PopStatus::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return PopStatus::kItem;
  }

  /// Nullopt when the stream ended (closed and drained, or aborted).
  /// `blocked_seconds` (optional) receives the time spent waiting for items.
  std::optional<T> pop(double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.empty() && !closed_) {
      const Timer t;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
    }
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// No more pushes; pending items still drain through pop().
  void close() { shut(/*drop=*/false); }

  /// Close and drop pending items (failure shutdown — nothing downstream
  /// should consume work from a broken run).
  void abort() { shut(/*drop=*/true); }

 private:
  void shut(bool drop) {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
      if (drop) items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  std::size_t cap_;
  bool closed_ = false;
};

/// Overlap accounting: replays one epoch on the modelled two-engine timeline.
/// The copy engine executes the per-batch wire times serially; the compute
/// engine executes the measured per-batch compute times serially, and batch
/// i's compute cannot start before its transfer lands. The returned value is
/// the total time the compute engine sat idle waiting on a transfer — the
/// modelled wire time NOT hidden behind compute. In a healthy pipeline this
/// converges to ~the first batch's wire time; in a transfer-bound epoch it
/// approaches the full wire total.
double exposed_transfer_seconds(std::span<const double> wire_seconds,
                                std::span<const double> compute_seconds);

/// Emits the stall half of a stage's busy/stall split as a trace span: the
/// interval `blocked` seconds long, ending now.
inline void stall_span(const char* cat, const char* name, double blocked) {
  if (blocked > 0.0) {
    const u64 dur = static_cast<u64>(blocked * 1e9);
    obs::emit_span(cat, name, obs::SpanSink::now_ns() - dur, dur);
  }
}

/// Per-stage busy-vs-stall decomposition, summed over each stage's workers
/// (so a stage's busy+stall can exceed wall time when it has several
/// workers). Busy is the stage body; stall is time blocked on the source or
/// an inter-stage queue. A stalling prepare stage means depth/workers are
/// undersized, a stalling compute stage means prepare or ship is the
/// bottleneck.
struct StageTimes {
  obs::StageBreakdown prepare;
  obs::StageBreakdown ship;
  obs::StageBreakdown compute;
};

/// What the executor publishes while it runs: every stage's busy/stall time
/// and the ship stage's transfer totals.
struct PipelineTotals {
  StageTimes stages;
  i64 packed_bytes = 0;
  i64 adj_bytes = 0;
  double wire_seconds = 0;  // total modelled PCIe time
};

/// Live PipelineTotals. Each stage adds its share once per item under one
/// mutex, so a concurrent reader — a server's stats() — sees them mid-run,
/// not only once the workers exit.
class PipelineMeter {
 public:
  void add(obs::StageBreakdown StageTimes::*stage, double busy, double stall,
           const transfer::PackedSubgraph* shipped = nullptr) {
    std::lock_guard lock(mu_);
    (t_.stages.*stage).busy_seconds += busy;
    (t_.stages.*stage).stall_seconds += stall;
    if (shipped != nullptr) {
      t_.packed_bytes += shipped->total_bytes;
      t_.adj_bytes += shipped->adjacency_bytes;
      t_.wire_seconds += shipped->modeled_seconds;
    }
  }

  [[nodiscard]] PipelineTotals snapshot() const {
    std::lock_guard lock(mu_);
    return t_;
  }

 private:
  mutable std::mutex mu_;
  PipelineTotals t_;
};

/// Stage staffing of one executor run.
struct PipelineConfig {
  /// Capacity of each inter-stage queue: peak resident items is
  /// ~2*depth + workers (both queues full + items held by stage hands).
  int depth = 2;
  int prepare_workers = 1;
  int compute_workers = 1;
};

/// Runs every item `source` yields through prepare -> ship -> compute and
/// returns once the source is exhausted and the last item finished.
///
///   source.pop(&blocked)  -> std::optional<Item>   nullopt = end of stream
///   prepare(item)         -> void               build the item's data
///   ship(item, slot)      -> PackedSubgraph     pack into a staging slot
///   compute(item, w)      -> void               forward pass on worker w
///   finish(item, error)   -> void               must not throw
///
/// `finish` sees each item once, after its compute time was published to
/// `meter`: with a null error, or with the exception its prepare, ship or
/// compute stage threw. A throw fails only that item and the stages keep
/// running; an owner that wants a failure to end the run closes or aborts
/// its source from `finish` (run_stream_epoch does).
///
/// Prepare and ship run on threads of their own. The calling thread is
/// compute worker 0. With C >= 2 compute workers, the workers are an OpenMP
/// team of min(C, omp_get_max_threads()) and each runs its kernels serially
/// (team size 1), so C workers never oversubscribe the cores with C full
/// OpenMP teams, and OMP_NUM_THREADS=1 leaves compute on the calling thread.
/// Items may complete out of source order.
template <typename Item, typename Source, typename PrepareFn, typename ShipFn,
          typename ComputeFn, typename FinishFn>
void run_pipeline(const PipelineConfig& cfg, Source& source,
                  transfer::StagingRing& ring, PipelineMeter& meter,
                  PrepareFn&& prepare, ShipFn&& ship, ComputeFn&& compute,
                  FinishFn&& finish) {
  QGTC_CHECK(cfg.depth >= 1, "pipeline depth must be >= 1");
  QGTC_CHECK(cfg.prepare_workers >= 1 && cfg.compute_workers >= 1,
             "stage worker counts must be >= 1");

  BoundedQueue<Item> ship_q(static_cast<std::size_t>(cfg.depth));
  BoundedQueue<Item> compute_q(static_cast<std::size_t>(cfg.depth));
  std::atomic<int> preparing{cfg.prepare_workers};

  // One worker of a hand-off stage: pops from `in`, runs `body`, pushes to
  // `out` (nullptr: the item ends here). Busy time is published before the
  // hand-off, so it is visible by the time the item finishes downstream.
  const auto run_stage = [&](auto& in, BoundedQueue<Item>* out,
                             obs::StageBreakdown StageTimes::*stage,
                             const char* cat, auto&& body) {
    for (;;) {
      double stall = 0.0;
      std::optional<Item> item = in.pop(&stall);
      stall_span(cat, "stall.pop", stall);
      if (!item.has_value()) return;
      const Timer busy;
      std::exception_ptr err;
      try {
        body(*item);
      } catch (...) {
        err = std::current_exception();
      }
      meter.add(stage, busy.seconds(), stall);
      if (err != nullptr || out == nullptr) {
        finish(*item, err);
        continue;
      }
      // Never refused: a stage's output closes only after its producers end.
      double push_stall = 0.0;
      (void)out->push(std::move(*item), &push_stall);
      stall_span(cat, "stall.push", push_stall);
      meter.add(stage, 0.0, push_stall);
    }
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < cfg.prepare_workers; ++p) {
    threads.emplace_back([&] {
      run_stage(source, &ship_q, &StageTimes::prepare, "prepare", prepare);
      // The last preparer out ends the ship stage's input.
      if (preparing.fetch_sub(1) == 1) ship_q.close();
    });
  }
  threads.emplace_back([&] {
    run_stage(ship_q, &compute_q, &StageTimes::ship, "ship", [&](Item& item) {
      const transfer::PackedSubgraph packed = ship(item, ring.next());
      meter.add(&StageTimes::ship, 0.0, 0.0, &packed);
    });
    compute_q.close();
  });
  const auto compute_worker = [&](int w) {
    run_stage(compute_q, nullptr, &StageTimes::compute, "compute",
              [&](Item& item) { compute(item, w); });
  };
  // An explicit team size overrides OMP_NUM_THREADS, so cap it: TSan runs
  // rely on OMP_NUM_THREADS=1 to keep libgomp's fork/join, which TSan cannot
  // see, out of the picture.
  const int team = std::min(cfg.compute_workers, omp_get_max_threads());
  if (team <= 1) {
    compute_worker(0);
  } else {
    // The workers are the calling thread's OpenMP team, whose threads
    // outlive the run, so each keeps its workspace and malloc arena from one
    // epoch to the next. Each runs its kernels serially.
#pragma omp parallel num_threads(team)
    {
      set_num_threads(1);
      compute_worker(omp_get_thread_num());
    }
  }
  for (std::thread& t : threads) t.join();
}

/// Per-epoch accounting the pipeline hands back to the engine: the
/// executor's totals plus the epoch-only bookkeeping a long-lived server
/// does not keep.
struct StreamEpochStats : PipelineTotals {
  double epoch_seconds = 0;    // wall time, all three stages overlapped
  double exposed_seconds = 0;  // wire time not hidden behind compute
  i64 peak_prepared_bytes = 0;  // live prepared bytes high-water: O(depth)
};

/// Runs one epoch — batches 0..num_batches-1, the source a closed queue of
/// their indices — through run_pipeline. `ring` is the ship
/// stage's staging-slot ring; the caller owns it so its capacity survives
/// across epochs (the warm-up epoch grows the slots once, timed epochs reuse
/// them — the pinned-buffer discipline).
///
///   prepare(i)            -> Item            build batch i's data
///   bytes(item)           -> i64             resident size (peak accounting)
///   ship(item, slot)      -> PackedSubgraph  pack into a staging slot
///   compute(item, i, w)   -> void            forward pass on worker w
///
/// Item indices are handed to prepare in ascending order but may complete —
/// and therefore ship and compute — out of order; callers must not depend on
/// batch execution order (the engine's counters and logits are index-keyed).
/// The first stage throw ends the epoch: no further batch is prepared, the
/// batches already in flight drain without compute, and the exception is
/// rethrown here after every worker stopped.
template <typename Item, typename PrepareFn, typename BytesFn,
          typename ShipFn, typename ComputeFn>
StreamEpochStats run_stream_epoch(i64 num_batches, const PipelineConfig& cfg,
                                  transfer::StagingRing& ring,
                                  PrepareFn&& prepare, BytesFn&& bytes,
                                  ShipFn&& ship, ComputeFn&& compute) {
  QGTC_CHECK(num_batches >= 0, "num_batches must be non-negative");
  StreamEpochStats stats;
  if (num_batches == 0) return stats;

  struct Slot {
    i64 index = 0;
    Item item{};
  };
  // The source: a closed queue holding every batch index, in order.
  BoundedQueue<Slot> source(static_cast<std::size_t>(num_batches));
  for (i64 i = 0; i < num_batches; ++i) source.push(Slot{i, Item{}});
  source.close();

  // Epoch-only bookkeeping: per-batch series for the exposed-transfer replay
  // and the live prepared-bytes high-water.
  const std::size_t n = static_cast<std::size_t>(num_batches);
  std::vector<double> wire(n, 0.0), comp(n, 0.0);
  std::atomic<i64> live_bytes{0};
  std::atomic<i64> peak_bytes{0};
  PipelineMeter meter;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // written once, by the first failure

  const Timer wall;
  run_pipeline<Slot>(
      cfg, source, ring, meter,
      /*prepare=*/
      [&](Slot& s) {
        QGTC_SPAN("prepare", "batch", {{"batch", s.index}});
        s.item = prepare(s.index);
        const i64 sz = bytes(s.item);
        const i64 live =
            live_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
        i64 peak = peak_bytes.load(std::memory_order_relaxed);
        while (live > peak && !peak_bytes.compare_exchange_weak(
                                  peak, live, std::memory_order_relaxed)) {
        }
      },
      /*ship=*/
      [&](Slot& s, transfer::StagingBuffer& slot) {
        QGTC_SPAN("ship", "batch", {{"batch", s.index}});
        transfer::PackedSubgraph packed = ship(s.item, slot);
        wire[static_cast<std::size_t>(s.index)] = packed.modeled_seconds;
        return packed;
      },
      /*compute=*/
      [&](Slot& s, int w) {
        if (failed.load(std::memory_order_relaxed)) return;
        QGTC_SPAN("compute", "batch", {{"batch", s.index}, {"worker", w}});
        const Timer t;
        compute(s.item, s.index, w);
        comp[static_cast<std::size_t>(s.index)] = t.seconds();
      },
      /*finish=*/
      [&](Slot& s, const std::exception_ptr& err) {
        if (err == nullptr) {
          live_bytes.fetch_sub(bytes(s.item), std::memory_order_relaxed);
        } else if (!failed.exchange(true)) {
          first_error = err;
          source.abort();
        }
      });
  if (first_error) std::rethrow_exception(first_error);
  stats.epoch_seconds = wall.seconds();

  static_cast<PipelineTotals&>(stats) = meter.snapshot();
  stats.exposed_seconds = exposed_transfer_seconds(wire, comp);
  stats.peak_prepared_bytes = peak_bytes.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace qgtc::core
