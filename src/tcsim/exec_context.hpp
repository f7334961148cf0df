// ExecutionContext — the object threaded through all four layers
// (tcsim -> kernels -> engine -> api; see DESIGN.md, "Execution contexts").
//
// A context bundles the three pieces of substrate state a kernel call needs:
//
//   * the SubstrateBackend that executes 8x8x128 tile ops,
//   * access to the per-thread workspace arena (padded accumulators,
//     surviving-K-tile lists, output tiles, per-sweep counts — reused
//     across calls instead of heap-allocated per kernel),
//   * a counter sink: one atomic Counters block, either the context's own
//     (engine and serving worker contexts, so per-batch-stream accounting
//     merges deterministically) or the default context's, which is one
//     block for the whole process.
//
// Contexts are cheap, immovable, and safe to share across threads: counter
// notes are atomic, the backend is a stateless singleton, and workspaces are
// keyed by OS thread, not by context.
#pragma once

#include <array>
#include <atomic>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "tcsim/backend.hpp"

namespace qgtc::tcsim {

/// Substrate counters (mirrors what a profiler would report from the
/// hardware unit): what a context has counted, or one note's delta.
struct Counters {
  u64 bmma_ops = 0;        // number of 8x8x128 MMA tile operations executed
  u64 frag_loads_a = 0;    // A-fragment loads from memory
  u64 frag_loads_b = 0;    // B-fragment loads from memory
  u64 frag_stores = 0;     // accumulator stores
  u64 tiles_jumped = 0;    // tiles skipped by zero-tile jumping
  u64 int32_bytes_avoided = 0;  // int32 intermediate bytes fused epilogues
                                // never materialised
  u64 saturated = 0;  // requantized values the epilogue clamped at qmax

  Counters& operator+=(const Counters& o) {
    bmma_ops += o.bmma_ops;
    frag_loads_a += o.frag_loads_a;
    frag_loads_b += o.frag_loads_b;
    frag_stores += o.frag_stores;
    tiles_jumped += o.tiles_jumped;
    int32_bytes_avoided += o.int32_bytes_avoided;
    saturated += o.saturated;
    return *this;
  }
};

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

  /// Uninitialised, 64-byte-aligned room for `n` u64: a tile sweep's B
  /// operand, packed once by the calling thread (tcsim::pack_b) and then
  /// only read by every worker of the sweep.
  u64* b_slices(i64 n);

  /// Bytes currently retained by this thread's arena.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  MatrixI32 padded_acc_;
  std::vector<MatrixI32> int32_scratch_;
  std::vector<std::vector<SparseTileRef>> k_lists_;
  AlignedVector<u32> acc_tiles_;
  std::vector<u64> sweep_counts_;
  AlignedVector<u64> b_slices_;
};

/// This OS thread's arena (created on first use, lives for the thread).
Workspace& thread_workspace();

class ExecutionContext {
 public:
  /// Context with an explicit backend. With `private_counters` (the engine's
  /// per-worker mode) substrate accounting lands in this context's own
  /// atomic counter block; without, in the default context's block.
  explicit ExecutionContext(BackendKind kind, bool private_counters = true);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  [[nodiscard]] const SubstrateBackend& backend() const { return *backend_; }
  [[nodiscard]] BackendKind backend_kind() const { return backend_->kind(); }

  /// The calling thread's workspace arena.
  [[nodiscard]] Workspace& workspace() const { return thread_workspace(); }

  /// Bulk substrate accounting (one note per tile sweep). Thread-safe.
  void note(const Counters& delta) const;

  /// Counters noted into this context's block since its last reset.
  [[nodiscard]] Counters counters() const;

  /// Zero this context's counter block.
  void reset_counters();

  /// The process-wide default context (used when kernel callers pass none):
  /// the process default backend and the process's shared counter block.
  static const ExecutionContext& default_context();

 private:
  /// One atomic per Counters field, in declaration order.
  using Block = std::array<std::atomic<u64>, sizeof(Counters) / sizeof(u64)>;

  const SubstrateBackend* backend_;
  mutable Block own_{};
  Block* sink_;  // own_, or the default context's own_
};

}  // namespace qgtc::tcsim
