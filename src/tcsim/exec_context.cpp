#include "tcsim/exec_context.hpp"

namespace qgtc::tcsim {

MatrixI32& Workspace::padded_acc(i64 rows, i64 cols) {
  if (padded_acc_.rows() != rows || padded_acc_.cols() != cols) {
    padded_acc_ = MatrixI32(rows, cols, 0);
  } else {
    padded_acc_.fill(0);
  }
  return padded_acc_;
}

MatrixI32& Workspace::int32_scratch(int slot, i64 rows, i64 cols) {
  if (static_cast<std::size_t>(slot) >= int32_scratch_.size()) {
    int32_scratch_.resize(static_cast<std::size_t>(slot) + 1);
  }
  MatrixI32& m = int32_scratch_[static_cast<std::size_t>(slot)];
  if (m.rows() != rows || m.cols() != cols) m = MatrixI32(rows, cols);
  return m;
}

std::span<std::vector<SparseTileRef>> Workspace::k_lists(i64 n) {
  const auto count = static_cast<std::size_t>(n);
  if (k_lists_.size() < count) k_lists_.resize(count);
  for (std::size_t i = 0; i < count; ++i) k_lists_[i].clear();
  return {k_lists_.data(), count};
}

u32* Workspace::acc_tiles(i64 n) {
  const auto words = static_cast<std::size_t>(n * kTileM * kTileN);
  if (acc_tiles_.size() < words) acc_tiles_.resize(words);
  return acc_tiles_.data();
}

std::span<u64> Workspace::sweep_counts(i64 n) {
  const auto count = static_cast<std::size_t>(n);
  if (sweep_counts_.size() < count) sweep_counts_.resize(count);
  return {sweep_counts_.data(), count};
}

std::size_t Workspace::footprint_bytes() const {
  std::size_t b = static_cast<std::size_t>(padded_acc_.size()) * sizeof(i32) +
                  acc_tiles_.size() * sizeof(u32) +
                  sweep_counts_.size() * sizeof(u64);
  for (const auto& m : int32_scratch_) {
    b += static_cast<std::size_t>(m.size()) * sizeof(i32);
  }
  for (const auto& l : k_lists_) b += l.capacity() * sizeof(SparseTileRef);
  return b;
}

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

ExecutionContext::ExecutionContext()
    : backend_(&qgtc::tcsim::backend(default_backend())), private_(false) {}

ExecutionContext::ExecutionContext(BackendKind kind, bool private_counters)
    : backend_(&qgtc::tcsim::backend(kind)), private_(private_counters) {}

void ExecutionContext::note(const Counters& delta) const {
  if (!private_) {
    thread_counters() += delta;
    return;
  }
  bmma_ops_.fetch_add(delta.bmma_ops, std::memory_order_relaxed);
  frag_loads_a_.fetch_add(delta.frag_loads_a, std::memory_order_relaxed);
  frag_loads_b_.fetch_add(delta.frag_loads_b, std::memory_order_relaxed);
  frag_stores_.fetch_add(delta.frag_stores, std::memory_order_relaxed);
  tiles_jumped_.fetch_add(delta.tiles_jumped, std::memory_order_relaxed);
  int32_bytes_avoided_.fetch_add(delta.int32_bytes_avoided,
                                 std::memory_order_relaxed);
  saturated_.fetch_add(delta.saturated, std::memory_order_relaxed);
}

Counters ExecutionContext::counters() const {
  if (!private_) return snapshot_counters();
  Counters c;
  c.bmma_ops = bmma_ops_.load(std::memory_order_relaxed);
  c.frag_loads_a = frag_loads_a_.load(std::memory_order_relaxed);
  c.frag_loads_b = frag_loads_b_.load(std::memory_order_relaxed);
  c.frag_stores = frag_stores_.load(std::memory_order_relaxed);
  c.tiles_jumped = tiles_jumped_.load(std::memory_order_relaxed);
  c.int32_bytes_avoided = int32_bytes_avoided_.load(std::memory_order_relaxed);
  c.saturated = saturated_.load(std::memory_order_relaxed);
  return c;
}

void ExecutionContext::reset_counters() {
  if (!private_) {
    qgtc::tcsim::reset_counters();
    return;
  }
  bmma_ops_.store(0, std::memory_order_relaxed);
  frag_loads_a_.store(0, std::memory_order_relaxed);
  frag_loads_b_.store(0, std::memory_order_relaxed);
  frag_stores_.store(0, std::memory_order_relaxed);
  tiles_jumped_.store(0, std::memory_order_relaxed);
  int32_bytes_avoided_.store(0, std::memory_order_relaxed);
  saturated_.store(0, std::memory_order_relaxed);
}

const ExecutionContext& ExecutionContext::default_context() {
  static const ExecutionContext ctx;
  return ctx;
}

}  // namespace qgtc::tcsim
