// Compressed-sparse-row graph storage, the substrate every GNN pipeline in
// the repo consumes. Graphs are undirected and stored symmetrised.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/defs.hpp"

namespace qgtc {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a CSR graph from an edge list. Self-loops are dropped, duplicate
  /// edges are merged, and (optionally) each edge is mirrored so the
  /// adjacency is symmetric.
  static CsrGraph from_edges(i64 num_nodes,
                             std::vector<std::pair<i32, i32>> edges,
                             bool symmetrize = true);

  [[nodiscard]] i64 num_nodes() const { return num_nodes_; }
  /// Number of directed edges stored (2x the undirected count after
  /// symmetrisation).
  [[nodiscard]] i64 num_edges() const { return static_cast<i64>(col_idx_.size()); }

  [[nodiscard]] i64 degree(i64 v) const { return row_ptr_[v + 1] - row_ptr_[v]; }

  [[nodiscard]] std::span<const i32> neighbors(i64 v) const {
    return {col_idx_.data() + row_ptr_[v],
            static_cast<std::size_t>(degree(v))};
  }

  [[nodiscard]] const std::vector<i64>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<i32>& col_idx() const { return col_idx_; }

  [[nodiscard]] bool has_edge(i64 u, i64 v) const;

 private:
  i64 num_nodes_ = 0;
  std::vector<i64> row_ptr_;
  std::vector<i32> col_idx_;
};

/// Non-owning read view of a CSR graph, the traversal interface every graph
/// consumer (partitioner, batcher, ego expansion, prepare) takes. Backed by
/// either one in-core `CsrGraph` (implicit conversion, one segment) or a set
/// of contiguous node-range segments — e.g. mmap'd shard files from
/// `store::DatasetStore`, whose row pointers keep their *global* edge
/// offsets and whose column slices are per-segment local. All segments
/// except the last must span the same number of nodes, so segment lookup is
/// O(1) division rather than a binary search per neighbour access.
class CsrView {
 public:
  struct Segment {
    i64 first_node = 0;
    i64 num_nodes = 0;
    /// `num_nodes + 1` entries of global edge offsets.
    const i64* row_ptr = nullptr;
    /// The segment's edges; index with `row_ptr[local] - row_ptr[0]`.
    const i32* col_idx = nullptr;
  };

  CsrView() = default;

  /*implicit*/ CsrView(const CsrGraph& g)  // NOLINT(google-explicit-constructor)
      : num_nodes_(g.num_nodes()),
        num_edges_(g.num_edges()),
        nodes_per_segment_(std::max<i64>(g.num_nodes(), 1)) {
    segments_.push_back(Segment{0, g.num_nodes(), g.row_ptr().data(),
                                g.col_idx().data()});
  }

  /// Multi-segment view (out-of-core shards). Segments must be sorted,
  /// contiguous from node 0, and uniform in node span except the last.
  CsrView(i64 num_nodes, i64 num_edges, std::vector<Segment> segments);

  [[nodiscard]] i64 num_nodes() const { return num_nodes_; }
  [[nodiscard]] i64 num_edges() const { return num_edges_; }

  [[nodiscard]] i64 degree(i64 v) const {
    const Segment& s = segment_of(v);
    const i64 local = v - s.first_node;
    return s.row_ptr[local + 1] - s.row_ptr[local];
  }

  [[nodiscard]] std::span<const i32> neighbors(i64 v) const {
    const Segment& s = segment_of(v);
    const i64 local = v - s.first_node;
    return {s.col_idx + (s.row_ptr[local] - s.row_ptr[0]),
            static_cast<std::size_t>(s.row_ptr[local + 1] - s.row_ptr[local])};
  }

 private:
  [[nodiscard]] const Segment& segment_of(i64 v) const {
    const std::size_t si = std::min(
        static_cast<std::size_t>(v / nodes_per_segment_), segments_.size() - 1);
    return segments_[si];
  }

  i64 num_nodes_ = 0;
  i64 num_edges_ = 0;
  i64 nodes_per_segment_ = 1;
  std::vector<Segment> segments_;
};

}  // namespace qgtc
