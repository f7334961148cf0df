// Thin OpenMP wrappers. All kernel-level parallelism in the repo goes through
// these helpers so scheduling policy and thread-count control live in one
// place (see /opt guides: OpenMP worksharing idioms).
#pragma once

#include <omp.h>

#include "common/defs.hpp"

namespace qgtc {

/// Number of worker threads the parallel runtime will use.
inline int num_threads() { return omp_get_max_threads(); }

/// Override the worker count (propagates to subsequent parallel regions).
inline void set_num_threads(int n) { omp_set_num_threads(n); }

/// Iteration count below which spawning a parallel region costs more than it
/// saves; such loops run serially in the calling thread.
inline constexpr i64 kSerialCutoff = 16;

/// True when a parallel region opened here would get a team of one: the
/// thread count is 1, or the nesting limit is reached (every kernel inside a
/// compute worker of an OpenMP team of two or more, see core/pipeline.hpp).
/// The loops below then run in the calling thread and open no region.
inline bool team_of_one() {
  return omp_get_max_threads() == 1 ||
         omp_get_active_level() >= omp_get_max_active_levels();
}

/// Statically-scheduled parallel loop over [begin, end). Use when iterations
/// have uniform cost (dense tile sweeps). Small ranges and teams of one run
/// serially in the caller — the batched-GNN pipeline launches thousands of
/// small kernels per epoch and region-spawn overhead would dominate (same
/// reason GPU kernels fuse).
template <typename Fn>
void parallel_for(i64 begin, i64 end, Fn&& fn) {
  if (end - begin < kSerialCutoff || team_of_one()) {
    for (i64 i = begin; i < end; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (i64 i = begin; i < end; ++i) fn(i);
}

/// Dynamically-scheduled parallel loop with a chunk size. Use when iteration
/// cost is irregular (zero-tile jumping makes row-block cost data-dependent).
/// The chunk is the unit of scheduled work: workers grab one chunk of
/// `chunk` consecutive iterations at a time, and the serial cutoff counts
/// chunks (too few chunks cannot amortise a region spawn, however many raw
/// iterations they contain). Teams of one run serially too.
template <typename Fn>
void parallel_for_dynamic(i64 begin, i64 end, i64 chunk, Fn&& fn) {
  if (chunk < 1) chunk = 1;
  const i64 chunks = ceil_div(end - begin, chunk);
  if (chunks < kSerialCutoff || team_of_one()) {
    for (i64 i = begin; i < end; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 1)
  for (i64 ci = 0; ci < chunks; ++ci) {
    const i64 lo = begin + ci * chunk;
    const i64 hi = (lo + chunk < end) ? lo + chunk : end;
    for (i64 i = lo; i < hi; ++i) fn(i);
  }
}

}  // namespace qgtc
