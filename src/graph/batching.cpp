#include "graph/batching.hpp"

#include <algorithm>
#include <cstring>

#include "parallel/parallel_for.hpp"

namespace qgtc {

std::vector<SubgraphBatch> make_batches(const PartitionResult& parts,
                                        i64 batch_size) {
  QGTC_CHECK(batch_size >= 1, "batch size must be at least 1");
  std::vector<SubgraphBatch> batches;
  for (i64 p0 = 0; p0 < parts.num_parts; p0 += batch_size) {
    SubgraphBatch b;
    b.part_bounds.push_back(0);
    const i64 p1 = std::min(p0 + batch_size, parts.num_parts);
    for (i64 p = p0; p < p1; ++p) {
      const auto& members = parts.members[static_cast<std::size_t>(p)];
      b.nodes.insert(b.nodes.end(), members.begin(), members.end());
      b.part_bounds.push_back(static_cast<i64>(b.nodes.size()));
    }
    if (!b.nodes.empty()) batches.push_back(std::move(b));
  }
  return batches;
}

std::vector<i32> expand_ego(const CsrView& g, const std::vector<i32>& seeds,
                            int fanout, i64 max_nodes) {
  QGTC_CHECK(!seeds.empty(), "ego-graph expansion needs at least one seed");
  QGTC_CHECK(fanout >= 0, "fanout must be non-negative");
  QGTC_CHECK(max_nodes >= 0, "max_nodes must be non-negative (0 = no cap)");
  std::vector<u8> visited(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<i32> nodes;
  nodes.reserve(seeds.size());
  for (const i32 s : seeds) {
    QGTC_CHECK(s >= 0 && s < g.num_nodes(), "seed node id out of range");
    QGTC_CHECK(!visited[static_cast<std::size_t>(s)], "duplicate seed node");
    visited[static_cast<std::size_t>(s)] = 1;
    nodes.push_back(s);
  }
  // Level-synchronous BFS over the discovery-ordered `nodes` vector itself:
  // [lo, hi) is the current frontier, appended neighbours form the next one.
  std::size_t lo = 0;
  for (int hop = 0; hop < fanout; ++hop) {
    const std::size_t hi = nodes.size();
    for (std::size_t i = lo; i < hi; ++i) {
      for (const i32 v : g.neighbors(nodes[i])) {
        if (visited[static_cast<std::size_t>(v)]) continue;
        if (max_nodes > 0 && static_cast<i64>(nodes.size()) >= max_nodes) {
          return nodes;
        }
        visited[static_cast<std::size_t>(v)] = 1;
        nodes.push_back(v);
      }
    }
    if (hi == nodes.size()) break;  // frontier exhausted early
    lo = hi;
  }
  return nodes;
}

namespace {

/// Applies fn(local_u, local_v) for every intra-partition edge of the batch
/// (plus optional self-loops), row by row: the self-loop first, then
/// neighbour order. Batch nodes are laid out partition by partition, so an
/// edge stays inside u's partition exactly when its local id falls in that
/// partition's [lo, hi) — one unsigned compare, which also rejects the -1 of
/// a node outside the batch. The block-diagonal rule is §4.1's.
template <typename Fn>
void for_each_batch_edge(const CsrView& g, const SubgraphBatch& batch,
                         bool add_self_loops, Fn&& fn) {
  std::vector<i32> local_of(static_cast<std::size_t>(g.num_nodes()), -1);
  for (i64 i = 0; i < batch.size(); ++i) {
    local_of[static_cast<std::size_t>(batch.nodes[static_cast<std::size_t>(i)])] =
        static_cast<i32>(i);
  }
  std::vector<i32> kept;  // one row's surviving local neighbours
  for (i64 p = 0; p < batch.num_parts(); ++p) {
    const i64 lo = batch.part_bounds[static_cast<std::size_t>(p)];
    const i64 hi = batch.part_bounds[static_cast<std::size_t>(p) + 1];
    const u64 span = static_cast<u64>(hi - lo);
    for (i64 lu = lo; lu < hi; ++lu) {
      const auto nbrs = g.neighbors(batch.nodes[static_cast<std::size_t>(lu)]);
      if (kept.size() < nbrs.size()) kept.resize(nbrs.size());
      // Branch-free compaction: always store, advance only on a keeper.
      std::size_t k = 0;
      for (const i32 gv : nbrs) {
        const i32 lv = local_of[static_cast<std::size_t>(gv)];
        kept[k] = lv;
        k += static_cast<u64>(lv - lo) < span;
      }
      if (add_self_loops) fn(lu, lu);
      for (std::size_t j = 0; j < k; ++j) fn(lu, static_cast<i64>(kept[j]));
    }
  }
}

/// Applies fn(local_u, local_v) for every edge of the batch from
/// partition-local lists, in the walker's order: member index m of the
/// partition at [lo, hi) is local id lo + m, so no CSR entry is read.
template <typename Fn>
void for_each_list_edge(const PartitionAdjacency& lists,
                        const SubgraphBatch& batch, bool add_self_loops,
                        Fn&& fn) {
  for (i64 p = 0; p < batch.num_parts(); ++p) {
    const i64 lo = batch.part_bounds[static_cast<std::size_t>(p)];
    const i64 hi = batch.part_bounds[static_cast<std::size_t>(p) + 1];
    for (i64 lu = lo; lu < hi; ++lu) {
      if (add_self_loops) fn(lu, lu);
      const i32 u = batch.nodes[static_cast<std::size_t>(lu)];
      for (const i32 m : lists.neighbors(u)) fn(lu, lo + m);
    }
  }
}

/// The tile-CSR of an n x n batch adjacency from any edge source that calls
/// its sink with rows in ascending order. A row block's touched K tiles
/// accumulate in per-tile scratch slots and flush (sorted) into the
/// tile-CSR when the source leaves the block. Only touched tiles ever
/// allocate scratch.
template <typename EdgeSource>
TileSparseBitMatrix assemble_tiles(i64 n, EdgeSource&& for_each_edge) {
  TileSparseBitMatrix adj(n, n);
  const i64 tiles_k = adj.tiles_k();
  std::vector<i32> slot_of(static_cast<std::size_t>(tiles_k), -1);
  std::vector<i64> touched;
  std::vector<u32> scratch;  // touched.size() * kTileWords words
  i64 open_tm = 0;

  const auto flush = [&](i64 tm) {
    if (touched.empty()) return;
    std::sort(touched.begin(), touched.end());
    for (const i64 tk : touched) {
      u32* dst = adj.append_tile(tm, tk);
      std::memcpy(dst,
                  scratch.data() +
                      static_cast<std::size_t>(slot_of[static_cast<std::size_t>(tk)]) *
                          TileSparseBitMatrix::kTileWords,
                  TileSparseBitMatrix::kTileWords * sizeof(u32));
      slot_of[static_cast<std::size_t>(tk)] = -1;
    }
    touched.clear();
  };

  for_each_edge([&](i64 u, i64 v) {
    const i64 tm = u / kTileM;
    if (tm != open_tm) {
      flush(open_tm);
      open_tm = tm;
    }
    const i64 tk = v / kTileK;
    i32 slot = slot_of[static_cast<std::size_t>(tk)];
    if (slot < 0) {
      slot = static_cast<i32>(touched.size());
      slot_of[static_cast<std::size_t>(tk)] = slot;
      touched.push_back(tk);
      const std::size_t need = static_cast<std::size_t>(slot + 1) *
                               TileSparseBitMatrix::kTileWords;
      if (scratch.size() < need) scratch.resize(need, 0u);
      std::fill_n(scratch.begin() +
                      static_cast<std::ptrdiff_t>(slot) *
                          TileSparseBitMatrix::kTileWords,
                  TileSparseBitMatrix::kTileWords, 0u);
    }
    const i64 in_tile_col = v % kTileK;
    scratch[static_cast<std::size_t>(slot) * TileSparseBitMatrix::kTileWords +
            static_cast<std::size_t>((u % kTileM) * kTileKWords +
                                     in_tile_col / kWordBits)] |=
        u32{1} << (in_tile_col % kWordBits);
  });
  flush(open_tm);
  adj.finalize();
  return adj;
}

}  // namespace

BitMatrix build_batch_adjacency(const CsrView& g, const SubgraphBatch& batch,
                                bool add_self_loops) {
  BitMatrix adj(batch.size(), batch.size(), BitLayout::kRowMajorK,
                PadPolicy::kTile8);
  for_each_batch_edge(g, batch, add_self_loops,
                      [&](i64 u, i64 v) { adj.set(u, v, true); });
  return adj;
}

TileSparseBitMatrix build_batch_adjacency_tiles(const CsrView& g,
                                                const SubgraphBatch& batch,
                                                bool add_self_loops) {
  return assemble_tiles(batch.size(), [&](auto&& sink) {
    for_each_batch_edge(g, batch, add_self_loops, sink);
  });
}

PartitionAdjacency build_partition_adjacency(
    const CsrView& g, const std::vector<SubgraphBatch>& batches) {
  // One packed lookup per node: (partition << 32) | member index. A node in
  // no batch keeps kNone and gets an empty list.
  constexpr u64 kNone = ~u64{0};
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<u64> slot(n, kNone);
  u64 part = 0;
  for (const SubgraphBatch& b : batches) {
    for (i64 p = 0; p < b.num_parts(); ++p, ++part) {
      const i64 lo = b.part_bounds[static_cast<std::size_t>(p)];
      const i64 hi = b.part_bounds[static_cast<std::size_t>(p) + 1];
      for (i64 i = lo; i < hi; ++i) {
        slot[static_cast<std::size_t>(b.nodes[static_cast<std::size_t>(i)])] =
            part << 32 | static_cast<u64>(i - lo);
      }
    }
  }
  PartitionAdjacency lists;
  lists.offsets.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    if (slot[u] != kNone) {
      const u64 pu = slot[u] >> 32;
      const auto nbrs = g.neighbors(static_cast<i64>(u));
      // Branch-free compaction: always store, advance only on a keeper.
      std::size_t k = lists.members.size();
      lists.members.resize(k + nbrs.size());
      for (const i32 v : nbrs) {
        const u64 sv = slot[static_cast<std::size_t>(v)];
        lists.members[k] = static_cast<i32>(static_cast<u32>(sv));
        k += (sv >> 32) == pu;
      }
      lists.members.resize(k);
      QGTC_CHECK(k <= static_cast<std::size_t>(INT32_MAX),
                 "partition-local adjacency exceeds 2^31 edges");
    }
    lists.offsets[u + 1] = static_cast<i32>(lists.members.size());
  }
  lists.members.shrink_to_fit();
  return lists;
}

TileSparseBitMatrix build_batch_adjacency_tiles(const PartitionAdjacency& lists,
                                                const SubgraphBatch& batch,
                                                bool add_self_loops) {
  return assemble_tiles(batch.size(), [&](auto&& sink) {
    for_each_list_edge(lists, batch, add_self_loops, sink);
  });
}

CsrGraph build_batch_csr(const CsrView& g, const SubgraphBatch& batch,
                         bool add_self_loops) {
  std::vector<std::pair<i32, i32>> edges;
  for_each_batch_edge(g, batch, add_self_loops, [&](i64 u, i64 v) {
    edges.emplace_back(static_cast<i32>(u), static_cast<i32>(v));
  });
  // from_edges sorts, dedups and drops the self-loops; the fp32 SpMM adds
  // the self term itself, in step with the bit path.
  return CsrGraph::from_edges(batch.size(), std::move(edges),
                              /*symmetrize=*/false);
}

MatrixF gather_rows(const store::FeatureSource& features,
                    const std::vector<i32>& nodes) {
  return features.gather(nodes);
}

i64 PreparedBatch::prepared_bytes() const {
  i64 total = 0;
  total += static_cast<i64>(batch.nodes.size() * sizeof(i32));
  total += static_cast<i64>(batch.part_bounds.size() * sizeof(i64));
  total += adj_tiles.bytes();
  total += static_cast<i64>(local.row_ptr().size() * sizeof(i64));
  total += static_cast<i64>(local.col_idx().size() * sizeof(i32));
  total += features.size() * static_cast<i64>(sizeof(float));
  return total;
}

PreparedBatch prepare_batch_data(const CsrView& g,
                                 const store::FeatureSource& features,
                                 const SubgraphBatch& batch,
                                 bool add_self_loops, bool build_fp32_csr,
                                 const PartitionAdjacency* lists) {
  PreparedBatch bd;
  bd.batch = batch;
  // Never through a dense intermediate.
  bd.adj_tiles = lists != nullptr
                     ? build_batch_adjacency_tiles(*lists, batch, add_self_loops)
                     : build_batch_adjacency_tiles(g, batch, add_self_loops);
  if (build_fp32_csr) bd.local = build_batch_csr(g, batch, add_self_loops);
  bd.features = features.gather(batch.nodes);
  return bd;
}

std::vector<i32> gather_labels(const std::vector<i32>& labels,
                               const std::vector<i32>& nodes) {
  std::vector<i32> out(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out[i] = labels[static_cast<std::size_t>(nodes[i])];
  }
  return out;
}

}  // namespace qgtc
