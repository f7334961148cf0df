// ExecutionContext — the object threaded through all four layers
// (tcsim -> kernels -> engine -> api; see DESIGN.md, "Execution contexts").
//
// A context bundles the three pieces of substrate state a kernel call needs:
//
//   * the SubstrateBackend that executes 8x8x128 tile ops,
//   * access to the per-thread workspace arena (padded accumulators,
//     surviving-K-tile lists, output tiles, per-sweep counts — reused
//     across calls instead of heap-allocated per kernel),
//   * a counter sink: either this context's private counter block (engine
//     worker contexts, so per-batch-stream accounting merges
//     deterministically) or the process-wide per-thread tcsim counters
//     (the default context — unchanged legacy semantics).
//
// Contexts are cheap, immovable, and safe to share across threads: counter
// notes are atomic, the backend is a stateless singleton, and workspaces are
// keyed by OS thread, not by context.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "tcsim/backend.hpp"
#include "tcsim/wmma.hpp"

namespace qgtc::tcsim {

/// Per-OS-thread scratch arena. Each named slot is a single-checkout buffer:
/// a kernel checks it out, uses it within the call, and the next call on the
/// same thread reuses the storage (capacity only grows). Slots are distinct
/// per use-site so nested kernel calls on one thread never alias.
class Workspace {
 public:
  /// Zeroed padded accumulator of at least rows x cols (reallocates only on
  /// shape growth/change; the engine's same-shaped batches hit the cache).
  MatrixI32& padded_acc(i64 rows, i64 cols);

  /// Uninitialised int32 scratch matrix of rows x cols (reallocates only on
  /// shape change; `slot` keys independent use-sites so stages with different
  /// shapes don't thrash each other's storage). Unlike padded_acc it is NOT
  /// zeroed: callers must fully overwrite the logical region (the unfused
  /// epilogue paths assign every element via flush_epilogue).
  MatrixI32& int32_scratch(int slot, i64 rows, i64 cols);

  /// The first `n` of this thread's sparse schedules (the A side of
  /// SubstrateBackend::mma_panel jobs), cleared. The list only grows, so
  /// every schedule keeps its capacity across calls of any `n`.
  std::span<std::vector<SparseTileRef>> k_lists(i64 n);

  /// Uninitialised, 64-byte-aligned room for `n` u32[8][8] output tiles
  /// (what SubstrateBackend::mma_panel writes).
  u32* acc_tiles(i64 n);

  /// Uninitialised room for `n` per-sweep counts: a tile sweep's workers
  /// each write the slots of the row blocks or column tiles they ran, and
  /// the calling thread sums them after the loop, so the sum needs no
  /// atomics and does not depend on the team.
  std::span<u64> sweep_counts(i64 n);

  /// Bytes currently retained by this thread's arena.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  MatrixI32 padded_acc_;
  std::vector<MatrixI32> int32_scratch_;
  std::vector<std::vector<SparseTileRef>> k_lists_;
  AlignedVector<u32> acc_tiles_;
  std::vector<u64> sweep_counts_;
};

/// This OS thread's arena (created on first use, lives for the thread).
Workspace& thread_workspace();

class ExecutionContext {
 public:
  /// Default context: process default backend, counters routed to the global
  /// per-thread tcsim counter registry (legacy snapshot semantics).
  ExecutionContext();

  /// Context with an explicit backend. With `private_counters` (the engine's
  /// per-worker mode) substrate accounting lands in this context's own
  /// atomic counter block instead of the global registry.
  explicit ExecutionContext(BackendKind kind, bool private_counters = true);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  [[nodiscard]] const SubstrateBackend& backend() const { return *backend_; }
  [[nodiscard]] BackendKind backend_kind() const { return backend_->kind(); }
  [[nodiscard]] bool has_private_counters() const { return private_; }

  /// The calling thread's workspace arena.
  [[nodiscard]] Workspace& workspace() const { return thread_workspace(); }

  /// Bulk substrate accounting (one note per tile sweep). Thread-safe.
  void note(const Counters& delta) const;

  /// Counters attributed to this context (private mode) or the global
  /// all-thread snapshot (default mode).
  [[nodiscard]] Counters counters() const;

  /// Zero this context's counters (private mode) or the global registry.
  void reset_counters();

  /// The process-wide default context (used when kernel callers pass none).
  static const ExecutionContext& default_context();

 private:
  const SubstrateBackend* backend_;
  bool private_;
  mutable std::atomic<u64> bmma_ops_{0};
  mutable std::atomic<u64> frag_loads_a_{0};
  mutable std::atomic<u64> frag_loads_b_{0};
  mutable std::atomic<u64> frag_stores_{0};
  mutable std::atomic<u64> tiles_jumped_{0};
  mutable std::atomic<u64> int32_bytes_avoided_{0};
  mutable std::atomic<u64> saturated_{0};
};

}  // namespace qgtc::tcsim
