// Online inference serving (the deployment shape of paper §6's batched
// inference): a long-lived ServingEngine owns one calibrated QgtcEngine and
// answers per-request ego-graph queries — seed nodes + fanout — instead of
// fixed offline epochs.
//
//   submit() --[admission BoundedQueue]--> batcher (coalesce)
//       --[BoundedQueue: the executor's source]--> run_pipeline:
//           prepare (P workers) -> ship (1 worker, StagingRing + PcieModel)
//           -> compute (C workers, one private-counter context each)
//
// The batcher coalesces admitted requests into *dynamic micro-batches* under
// a max_batch_nodes / max_batch_requests / max_wait_us policy: each request's
// ego-graph becomes one partition of a block-diagonal SubgraphBatch (the
// intra-partition-edges-only rule keeps requests independent inside the
// shared adjacency). The micro-batches then ride the same staged executor
// as the offline epochs (`core/pipeline.hpp`) and the same prepare path
// (`QgtcEngine::prepare_subgraph` = `prepare_batch_data` +
// `QgtcModel::prepare_input`). A request served online is therefore
// bit-identical to the same batch membership run through the offline epoch
// path — the serving parity test surface.
//
// Failure is per-batch, not per-server: a request whose seeds are invalid
// fails its own future at admission; a micro-batch whose stage throws
// reaches the executor's `finish` with its error, which fails the futures of
// exactly its member requests, and the pipeline keeps serving.
#pragma once

#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"

namespace qgtc::core {

/// Micro-batch coalescing + pipeline staffing policy. The dispatch rule: a
/// batch goes out when adding the next request would exceed `max_batch_nodes`
/// or `max_batch_requests`, or when the oldest admitted request has waited
/// `max_wait_us` — the classic dynamic-batching latency/throughput dial.
struct ServingPolicy {
  /// Node budget per micro-batch (padded tiles grow with nodes; this bounds
  /// the adjacency/activation footprint of one dispatch).
  i64 max_batch_nodes = 4096;
  /// Request budget per micro-batch.
  i64 max_batch_requests = 64;
  /// Oldest-request wait bound before a partial batch dispatches anyway.
  i64 max_wait_us = 200;
  /// Stage staffing (see pipeline.hpp for the GPU analogy: prepare = host
  /// DataLoader threads, ship = copy engine, compute = device streams).
  int prepare_workers = 1;
  int compute_workers = 1;
  /// Admission queue capacity: submit() blocks past this backlog —
  /// open-loop overload turns into queueing delay, not unbounded memory.
  i64 admission_capacity = 256;
  /// Capacity of each inter-stage micro-batch queue.
  int queue_depth = 2;
};

/// One ego-graph inference request: `fanout`-hop BFS neighbourhood around
/// `seeds` (fanout 0 = exactly the listed nodes — the offline-parity shape).
/// `max_nodes > 0` truncates the expansion (admission control for hubs); 0
/// means no cap, and a negative value fails the request at admission.
struct ServingRequest {
  std::vector<i32> seeds;
  int fanout = 0;
  i64 max_nodes = 0;
};

/// Per-request latency breakdown, all in seconds since submit().
struct RequestTiming {
  double queue_seconds = 0;  // submit -> micro-batch dispatch
  double total_seconds = 0;  // submit -> result ready (the client latency)
};

/// What a request's future resolves to.
struct ServingResult {
  /// The ego-graph's node ids (seeds first, then BFS discovery order) —
  /// logits row i is node `nodes[i]`.
  std::vector<i32> nodes;
  /// int32 logits, nodes.size() x out_dim, bit-identical to the offline
  /// epoch path for the same micro-batch membership.
  MatrixI32 logits;
  /// The micro-batch this request rode in (coalescing observability).
  i64 batch_nodes = 0;
  i64 batch_requests = 0;
  RequestTiming timing;
};

/// Server-lifetime accounting (monotonic; snapshot via stats()).
struct ServingStats {
  i64 requests_admitted = 0;
  i64 requests_completed = 0;
  i64 requests_failed = 0;
  i64 batches_dispatched = 0;
  i64 batch_nodes_total = 0;
  /// Dispatch-cause split: budget-full vs max_wait timeout flushes.
  i64 dispatches_full = 0;
  i64 dispatches_timeout = 0;
  /// Transfer accounting charged by the ship stage (PCIe model, §4.6).
  i64 packed_bytes = 0;
  double wire_seconds = 0;
  /// Substrate counters summed over the compute workers' contexts.
  i64 bmma_ops = 0;
  i64 tiles_jumped = 0;
  /// Per-stage busy-vs-stall decomposition, summed over each stage's workers
  /// since server start and current at any time (the executor publishes
  /// each micro-batch's share as it passes). `batcher.busy` is time spent
  /// with an open micro-batch (the coalesce window); `batcher.stall` is idle
  /// time waiting for the first request of a batch plus downstream
  /// backpressure on dispatch (the prepare queue refusing the push). For
  /// prepare/ship/compute, busy is the stage body and stall is time blocked
  /// on inter-stage queues — exactly the queue-wait vs service-time split
  /// the latency tail debugging needs.
  obs::StageBreakdown batcher_stage;
  obs::StageBreakdown prepare_stage;
  obs::StageBreakdown ship_stage;
  obs::StageBreakdown compute_stage;
};

/// Long-lived serving engine. Construction builds and calibrates the
/// underlying QgtcEngine (the epoch mode is forced to streaming so no offline
/// epoch is materialised; a nonzero `cache_budget_bytes` is rejected, since
/// there are no epoch batches to pin) and starts the batcher and executor
/// threads; stop()
/// drains and joins them (idempotent, also run by the destructor). submit()
/// is thread-safe.
class ServingEngine {
 public:
  ServingEngine(const Dataset& dataset, EngineConfig cfg,
                const ServingPolicy& policy);
  /// Out-of-core variant: serves straight off a mmap'd DatasetStore (which
  /// must outlive the server). Same pipeline, same parity.
  ServingEngine(const store::DatasetStore& dstore, EngineConfig cfg,
                const ServingPolicy& policy);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Admits one request. The future fails with std::invalid_argument for bad
  /// seeds, and with whatever a pipeline stage threw if the request's
  /// micro-batch failed mid-flight. Throws std::runtime_error if the server
  /// is stopped.
  std::future<ServingResult> submit(ServingRequest req);

  /// Blocking convenience: submit + get.
  ServingResult infer(ServingRequest req);

  /// Closes admission, flushes every in-flight micro-batch, joins all stage
  /// threads. Pending requests still complete; new submits fail.
  void stop();

  [[nodiscard]] ServingStats stats() const;
  [[nodiscard]] const QgtcEngine& engine() const { return *engine_; }
  [[nodiscard]] const ServingPolicy& policy() const { return policy_; }

 private:
  struct Pending;
  struct MicroBatch;

  /// Shared body of both constructors: validates the policy, builds and
  /// calibrates the engine over `data`, then the queues, contexts and threads.
  template <typename DataSource>
  void start(const DataSource& data, EngineConfig cfg);
  void batcher_loop();
  /// Runs the staged executor over the batcher's micro-batches until stop().
  void pipeline_loop();

  /// Dispatches `batch` downstream (or fails it if the server is aborting).
  void dispatch(MicroBatch&& batch, bool timed_out);
  /// Resolves every member request of `batch`: splits its logits per request,
  /// or fails them all with `err` — per-batch failure isolation, not server
  /// death.
  void finish(MicroBatch& batch, const std::exception_ptr& err);

  ServingPolicy policy_;
  std::unique_ptr<QgtcEngine> engine_;

  std::unique_ptr<BoundedQueue<Pending>> admission_;
  std::unique_ptr<BoundedQueue<MicroBatch>> batches_;

  transfer::StagingRing ring_{2};
  transfer::PcieModel pcie_;
  PipelineMeter meter_;

  /// One private-counter execution context per compute worker.
  std::deque<tcsim::ExecutionContext> ctxs_;

  std::thread batcher_;
  std::thread pipeline_;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;

  mutable std::mutex stats_mu_;
  ServingStats stats_;
};

/// Open-loop load-generation spec: arrivals are a Poisson process at
/// `target_qps` (exponential inter-arrival gaps from `seed`), submitted
/// without waiting for completions — the standard tail-latency protocol
/// (closed-loop clients hide queueing by self-throttling).
struct LoadSpec {
  i64 num_requests = 256;
  double target_qps = 500.0;
  /// Per-request shape: `seeds_per_request` random seed nodes + `fanout`-hop
  /// expansion, capped at `max_nodes`.
  int seeds_per_request = 4;
  int fanout = 1;
  i64 max_nodes = 512;
  u64 seed = 7;
};

/// What the load run measured.
struct LoadReport {
  i64 completed = 0;
  i64 failed = 0;
  double wall_seconds = 0;
  double sustained_qps = 0;  // completed / wall
  double offered_qps = 0;    // the spec's target
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double mean_batch_requests = 0;  // coalescing actually achieved
};

/// Drives `serving` with the open-loop Poisson client and reduces the
/// latency distribution to p50/p99/p999 + sustained QPS.
LoadReport run_poisson_load(ServingEngine& serving, const LoadSpec& spec);

}  // namespace qgtc::core
