// Subgraph batching tests: coverage, block-diagonal adjacency, CSR/bit
// consistency, feature gathering.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/batching.hpp"
#include "graph/generator.hpp"

namespace qgtc {
namespace {

struct Fixture {
  Dataset ds;
  PartitionResult parts;
  std::vector<SubgraphBatch> batches;

  explicit Fixture(i64 nodes = 800, i64 edges = 4000, i64 nparts = 8,
                   i64 batch_size = 3) {
    DatasetSpec spec{"t", nodes, edges, 8, 3, 8, 5};
    ds = generate_dataset(spec);
    parts = partition_graph(ds.graph, nparts);
    batches = make_batches(parts, batch_size);
  }
};

TEST(Batching, CoversAllNodesOnce) {
  Fixture f;
  std::vector<int> seen(800, 0);
  for (const auto& b : f.batches) {
    for (const i32 v : b.nodes) ++seen[static_cast<std::size_t>(v)];
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(Batching, BatchSizesMatchPartitionGrouping) {
  Fixture f;
  // 8 partitions in batches of 3 -> 3 batches (3, 3, 2 partitions).
  ASSERT_EQ(f.batches.size(), 3u);
  EXPECT_EQ(f.batches[0].num_parts(), 3);
  EXPECT_EQ(f.batches[1].num_parts(), 3);
  EXPECT_EQ(f.batches[2].num_parts(), 2);
}

TEST(Batching, AdjacencyIsBlockDiagonal) {
  Fixture f;
  const auto& b = f.batches[0];
  const BitMatrix adj = build_batch_adjacency(f.ds.graph, b);
  // Edges across different partitions of the batch must be absent even when
  // the global graph has them.
  for (i64 u = 0; u < b.size(); u += 7) {
    for (i64 v = 0; v < b.size(); v += 11) {
      if (adj.get(u, v) && u != v) {
        // Find the partitions containing u and v.
        i64 pu = -1, pv = -1;
        for (i64 p = 0; p < b.num_parts(); ++p) {
          if (u >= b.part_bounds[static_cast<std::size_t>(p)] &&
              u < b.part_bounds[static_cast<std::size_t>(p) + 1])
            pu = p;
          if (v >= b.part_bounds[static_cast<std::size_t>(p)] &&
              v < b.part_bounds[static_cast<std::size_t>(p) + 1])
            pv = p;
        }
        EXPECT_EQ(pu, pv) << "cross-partition edge in batch adjacency";
      }
    }
  }
}

TEST(Batching, SelfLoops) {
  Fixture f;
  const auto& b = f.batches[0];
  const BitMatrix with = build_batch_adjacency(f.ds.graph, b, true);
  const BitMatrix without = build_batch_adjacency(f.ds.graph, b, false);
  for (i64 u = 0; u < std::min<i64>(b.size(), 50); ++u) {
    EXPECT_TRUE(with.get(u, u));
    EXPECT_FALSE(without.get(u, u));
  }
}

TEST(Batching, CsrMatchesBitAdjacency) {
  Fixture f;
  const auto& b = f.batches[1];
  const BitMatrix adj = build_batch_adjacency(f.ds.graph, b, false);
  const CsrGraph local = build_batch_csr(f.ds.graph, b, false);
  ASSERT_EQ(local.num_nodes(), b.size());
  i64 bit_edges = 0;
  for (i64 u = 0; u < b.size(); ++u) {
    for (i64 v = 0; v < b.size(); ++v) {
      if (adj.get(u, v)) {
        ++bit_edges;
        EXPECT_TRUE(local.has_edge(u, v));
      }
    }
  }
  EXPECT_EQ(bit_edges, local.num_edges());
}

TEST(Batching, AdjacencyMirrorsGlobalEdges) {
  Fixture f;
  const auto& b = f.batches[0];
  const BitMatrix adj = build_batch_adjacency(f.ds.graph, b, false);
  // Every set bit corresponds to a real global edge.
  for (i64 u = 0; u < b.size(); u += 5) {
    for (i64 v = 0; v < b.size(); v += 3) {
      if (adj.get(u, v)) {
        EXPECT_TRUE(f.ds.graph.has_edge(b.nodes[static_cast<std::size_t>(u)],
                                        b.nodes[static_cast<std::size_t>(v)]));
      }
    }
  }
}

TEST(Batching, AdjacencyEqualsBruteForceOracle) {
  // Partition sizes off multiples of 8, batches spanning more than one
  // 128-column tile, neighbours outside the batch, and two degree-0 nodes.
  const std::vector<std::size_t> sizes = {5, 13, 1, 9, 70, 61, 15, 46, 80};
  const i64 n = 300;
  Rng rng(31);
  std::vector<i32> perm(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<i32>(i);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next_below(i + 1)]);
  }
  PartitionResult parts;
  parts.num_parts = static_cast<i64>(sizes.size());
  parts.part_of.resize(perm.size());
  auto first = perm.begin();
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    std::vector<i32> members(first, first + static_cast<i64>(sizes[p]));
    first += static_cast<i64>(sizes[p]);
    std::sort(members.begin(), members.end());
    for (const i32 v : members) {
      parts.part_of[static_cast<std::size_t>(v)] = static_cast<i32>(p);
    }
    parts.members.push_back(std::move(members));
  }
  const auto isolated = [](i32 v) { return v == 7 || v == 150; };
  std::vector<std::pair<i32, i32>> edges;
  for (int e = 0; e < 3000; ++e) {
    const auto u = static_cast<i32>(rng.next_below(static_cast<u64>(n)));
    auto v = static_cast<i32>(rng.next_below(static_cast<u64>(n)));
    if (e % 2 == 0) {  // half the edges stay inside u's partition
      const auto& m = parts.members[static_cast<std::size_t>(
          parts.part_of[static_cast<std::size_t>(u)])];
      v = m[rng.next_below(m.size())];
    }
    if (!isolated(u) && !isolated(v)) edges.emplace_back(u, v);
  }
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  ASSERT_EQ(g.degree(7), 0);
  ASSERT_EQ(g.degree(150), 0);

  const auto batches = make_batches(parts, 3);
  ASSERT_EQ(batches.size(), 3u);
  const PartitionAdjacency lists = build_partition_adjacency(g, batches);
  for (const auto& b : batches) {
    std::vector<i64> part_of_local(static_cast<std::size_t>(b.size()));
    for (i64 p = 0; p < b.num_parts(); ++p) {
      for (i64 i = b.part_bounds[static_cast<std::size_t>(p)];
           i < b.part_bounds[static_cast<std::size_t>(p) + 1]; ++i) {
        part_of_local[static_cast<std::size_t>(i)] = p;
      }
    }
    for (const bool loops : {true, false}) {
      const BitMatrix dense = build_batch_adjacency(g, b, loops);
      const TileSparseBitMatrix tiles =
          build_batch_adjacency_tiles(g, b, loops);
      const TileSparseBitMatrix listed =
          build_batch_adjacency_tiles(lists, b, loops);
      const CsrGraph csr = build_batch_csr(g, b, loops);
      i64 off_diagonal = 0;
      for (i64 u = 0; u < b.size(); ++u) {
        for (i64 v = 0; v < b.size(); ++v) {
          const bool want =
              part_of_local[static_cast<std::size_t>(u)] ==
                  part_of_local[static_cast<std::size_t>(v)] &&
              (g.has_edge(b.nodes[static_cast<std::size_t>(u)],
                          b.nodes[static_cast<std::size_t>(v)]) ||
               (loops && u == v));
          ASSERT_EQ(dense.get(u, v), want) << "dense " << u << ", " << v;
          ASSERT_EQ(tiles.get(u, v), want) << "tiles " << u << ", " << v;
          ASSERT_EQ(listed.get(u, v), want) << "lists " << u << ", " << v;
          // The local CSR never stores self-loops: the fp32 SpMM adds them.
          ASSERT_EQ(csr.has_edge(u, v), want && u != v)
              << "csr " << u << ", " << v;
          off_diagonal += want && u != v;
        }
      }
      EXPECT_EQ(csr.num_edges(), off_diagonal);
    }
  }
}

TEST(Batching, GatherRows) {
  Fixture f;
  const auto& b = f.batches[0];
  const MatrixF feats = gather_rows(f.ds.features, b.nodes);
  ASSERT_EQ(feats.rows(), b.size());
  ASSERT_EQ(feats.cols(), f.ds.features.cols());
  for (i64 i = 0; i < std::min<i64>(b.size(), 20); ++i) {
    for (i64 j = 0; j < feats.cols(); ++j) {
      EXPECT_FLOAT_EQ(feats(i, j),
                      f.ds.features(b.nodes[static_cast<std::size_t>(i)], j));
    }
  }
}

TEST(Batching, GatherLabels) {
  Fixture f;
  const auto& b = f.batches[0];
  const auto labels = gather_labels(f.ds.labels, b.nodes);
  ASSERT_EQ(labels.size(), b.nodes.size());
  for (std::size_t i = 0; i < labels.size(); i += 9) {
    EXPECT_EQ(labels[i], f.ds.labels[static_cast<std::size_t>(b.nodes[i])]);
  }
}

TEST(Batching, InvalidBatchSizeThrows) {
  Fixture f;
  EXPECT_THROW(make_batches(f.parts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace qgtc
