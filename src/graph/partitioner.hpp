// Graph partitioner — the METIS substitute (paper §4.1 uses METIS; see
// DESIGN.md). BFS-grown balanced partitions followed by greedy boundary
// refinement: good-modularity, size-bounded parts, which is the property the
// QGTC pipeline needs (denser subgraphs => fewer zero tiles).
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace qgtc {

struct PartitionResult {
  i64 num_parts = 0;
  std::vector<i32> part_of;               // node -> partition id
  std::vector<std::vector<i32>> members;  // partition id -> sorted node list

  /// Fraction of edges whose endpoints share a partition (modularity-style
  /// quality signal; random partitioning scores ~1/num_parts).
  double intra_edge_fraction(const CsrView& g) const;
};

struct PartitionOptions {
  /// Max allowed partition size as a multiple of the balanced size.
  double balance_slack = 1.15;
  /// Boundary-refinement sweeps (0 disables refinement).
  int refine_passes = 2;
  u64 seed = 7;
};

/// Partition `g` into `num_parts` parts. Deterministic in `opt.seed`.
PartitionResult partition_graph(const CsrView& g, i64 num_parts,
                                const PartitionOptions& opt = {});

}  // namespace qgtc
