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

u64* Workspace::b_slices(i64 n) {
  const auto count = static_cast<std::size_t>(n);
  if (b_slices_.size() < count) b_slices_.resize(count);
  return b_slices_.data();
}

std::size_t Workspace::footprint_bytes() const {
  std::size_t b = static_cast<std::size_t>(padded_acc_.size()) * sizeof(i32) +
                  acc_tiles_.size() * sizeof(u32) +
                  (sweep_counts_.size() + b_slices_.size()) * sizeof(u64);
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

namespace {

/// Counters' fields in declaration order: slot i of a context's block.
constexpr u64 Counters::*kFields[] = {
    &Counters::bmma_ops,     &Counters::frag_loads_a,
    &Counters::frag_loads_b, &Counters::frag_stores,
    &Counters::tiles_jumped, &Counters::int32_bytes_avoided,
    &Counters::saturated};
static_assert(std::size(kFields) == sizeof(Counters) / sizeof(u64),
              "every Counters field needs a slot");

}  // namespace

ExecutionContext::ExecutionContext(BackendKind kind, bool private_counters)
    : backend_(&qgtc::tcsim::backend(kind)),
      sink_(private_counters ? &own_ : &default_context().own_) {}

void ExecutionContext::note(const Counters& delta) const {
  for (std::size_t i = 0; i < sink_->size(); ++i) {
    (*sink_)[i].fetch_add(delta.*kFields[i], std::memory_order_relaxed);
  }
}

Counters ExecutionContext::counters() const {
  Counters c;
  for (std::size_t i = 0; i < sink_->size(); ++i) {
    c.*kFields[i] = (*sink_)[i].load(std::memory_order_relaxed);
  }
  return c;
}

void ExecutionContext::reset_counters() {
  for (auto& slot : *sink_) slot.store(0, std::memory_order_relaxed);
}

const ExecutionContext& ExecutionContext::default_context() {
  static const ExecutionContext ctx(default_backend());
  return ctx;
}

}  // namespace qgtc::tcsim
