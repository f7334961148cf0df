#include "graph/partitioner.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/rng.hpp"

namespace qgtc {

double PartitionResult::intra_edge_fraction(const CsrView& g) const {
  if (g.num_edges() == 0) return 1.0;
  i64 intra = 0;
  for (i64 u = 0; u < g.num_nodes(); ++u) {
    for (const i32 v : g.neighbors(u)) {
      if (part_of[static_cast<std::size_t>(u)] == part_of[static_cast<std::size_t>(v)]) ++intra;
    }
  }
  return static_cast<double>(intra) / static_cast<double>(g.num_edges());
}

namespace {

/// One refinement sweep: move boundary nodes to the neighbouring partition
/// that hosts the majority of their edges, when the balance bound allows it.
/// (Greedy single-node Kernighan-Lin-style gains.)
i64 refine_pass(const CsrView& g, std::vector<i32>& part_of,
                std::vector<i64>& part_size, i64 max_size, i64 num_parts) {
  i64 moves = 0;
  std::vector<i64> gain(static_cast<std::size_t>(num_parts), 0);
  std::vector<i32> touched;
  for (i64 u = 0; u < g.num_nodes(); ++u) {
    const i32 cur = part_of[static_cast<std::size_t>(u)];
    touched.clear();
    for (const i32 v : g.neighbors(u)) {
      const i32 p = part_of[static_cast<std::size_t>(v)];
      if (gain[static_cast<std::size_t>(p)] == 0) touched.push_back(p);
      ++gain[static_cast<std::size_t>(p)];
    }
    i32 best = cur;
    i64 best_gain = gain[static_cast<std::size_t>(cur)];
    for (const i32 p : touched) {
      if (p != cur && gain[static_cast<std::size_t>(p)] > best_gain &&
          part_size[static_cast<std::size_t>(p)] < max_size) {
        best = p;
        best_gain = gain[static_cast<std::size_t>(p)];
      }
    }
    for (const i32 p : touched) gain[static_cast<std::size_t>(p)] = 0;
    if (best != cur) {
      part_of[static_cast<std::size_t>(u)] = best;
      --part_size[static_cast<std::size_t>(cur)];
      ++part_size[static_cast<std::size_t>(best)];
      ++moves;
    }
  }
  return moves;
}

}  // namespace

PartitionResult partition_graph(const CsrView& g, i64 num_parts,
                                const PartitionOptions& opt) {
  QGTC_CHECK(num_parts >= 1, "need at least one partition");
  const i64 n = g.num_nodes();
  num_parts = std::min(num_parts, std::max<i64>(n, 1));
  const i64 target = ceil_div(std::max<i64>(n, 1), num_parts);
  const i64 max_size =
      std::max<i64>(target + 1, static_cast<i64>(static_cast<double>(target) * opt.balance_slack));

  PartitionResult res;
  res.num_parts = num_parts;
  res.part_of.assign(static_cast<std::size_t>(n), -1);

  // BFS growth: each partition grows from a seed until it reaches the target
  // size, preferring frontier nodes so parts stay connected and dense.
  Rng rng(opt.seed);
  std::vector<i32> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // Deterministic shuffle of seed candidates.
  for (i64 i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.next_below(static_cast<u64>(i + 1)))]);
  }

  std::vector<i64> part_size(static_cast<std::size_t>(num_parts), 0);
  std::deque<i32> queue;
  i64 seed_cursor = 0;
  for (i32 p = 0; p < num_parts; ++p) {
    queue.clear();
    i64 filled = 0;
    while (filled < target) {
      i32 u = -1;
      while (!queue.empty()) {
        const i32 cand = queue.front();
        queue.pop_front();
        if (res.part_of[static_cast<std::size_t>(cand)] < 0) {
          u = cand;
          break;
        }
      }
      if (u < 0) {
        // Frontier exhausted: pick the next unassigned seed.
        while (seed_cursor < n &&
               res.part_of[static_cast<std::size_t>(order[static_cast<std::size_t>(seed_cursor)])] >= 0) {
          ++seed_cursor;
        }
        if (seed_cursor >= n) break;  // all nodes assigned
        u = order[static_cast<std::size_t>(seed_cursor)];
      }
      res.part_of[static_cast<std::size_t>(u)] = p;
      ++filled;
      for (const i32 v : g.neighbors(u)) {
        if (res.part_of[static_cast<std::size_t>(v)] < 0) queue.push_back(v);
      }
    }
    part_size[static_cast<std::size_t>(p)] = filled;
    if (seed_cursor >= n && queue.empty() && filled == 0) break;
  }
  // Any stragglers (possible when BFS exhausted early) go to the smallest
  // partition.
  for (i64 u = 0; u < n; ++u) {
    if (res.part_of[static_cast<std::size_t>(u)] < 0) {
      const auto it = std::min_element(part_size.begin(), part_size.end());
      const i32 p = static_cast<i32>(it - part_size.begin());
      res.part_of[static_cast<std::size_t>(u)] = p;
      ++part_size[static_cast<std::size_t>(p)];
    }
  }

  for (int pass = 0; pass < opt.refine_passes; ++pass) {
    if (refine_pass(g, res.part_of, part_size, max_size, num_parts) == 0) break;
  }

  res.members.assign(static_cast<std::size_t>(num_parts), {});
  for (i64 p = 0; p < num_parts; ++p) {
    res.members[static_cast<std::size_t>(p)].reserve(
        static_cast<std::size_t>(part_size[static_cast<std::size_t>(p)]));
  }
  for (i64 u = 0; u < n; ++u) {
    res.members[static_cast<std::size_t>(res.part_of[static_cast<std::size_t>(u)])].push_back(
        static_cast<i32>(u));
  }
  return res;
}

}  // namespace qgtc
