// Subgraph batching (paper §4.1): partitions are grouped into batches; a
// batch is computed as one block-diagonal binary adjacency (edges only
// connect nodes of the same partition — the main source of Figure 8's
// all-zero tiles), stored as a tile-CSR of its nonzero tiles, over the
// gathered node features.
#pragma once

#include <vector>

#include "bittensor/bit_matrix.hpp"
#include "bittensor/tile_sparse.hpp"
#include "common/matrix.hpp"
#include "graph/csr.hpp"
#include "store/feature_store.hpp"
#include "graph/partitioner.hpp"

namespace qgtc {

struct SubgraphBatch {
  std::vector<i32> nodes;        // global node ids, grouped by partition
  std::vector<i64> part_bounds;  // prefix offsets into `nodes`, one per part + 1
  [[nodiscard]] i64 size() const { return static_cast<i64>(nodes.size()); }
  [[nodiscard]] i64 num_parts() const {
    return static_cast<i64>(part_bounds.size()) - 1;
  }
};

/// Groups consecutive partitions into batches of `batch_size` partitions.
std::vector<SubgraphBatch> make_batches(const PartitionResult& parts,
                                        i64 batch_size);

/// Expands a request's seed nodes into an ego-graph node set by `fanout`-hop
/// BFS over the global CSR (fanout 0 = the seeds themselves). Nodes come
/// back deduplicated in discovery order, seeds first — the serving layer
/// treats the result as one partition of a dynamic micro-batch, so its edges
/// (intra-partition by the block-diagonal rule) are exactly the subgraph the
/// request asked about. `max_nodes > 0` truncates the frontier once the set
/// reaches that size (admission control for runaway hubs); seeds are always
/// kept. Throws if any seed is out of range or duplicated.
std::vector<i32> expand_ego(const CsrView& g, const std::vector<i32>& seeds,
                            int fanout, i64 max_nodes = 0);

/// Builds the batch's dense binary adjacency (kRowMajorK, PAD8 rows) with
/// only intra-partition edges, plus self-loops when `add_self_loops` — the
/// reference the tile-CSR builder below is tested against.
BitMatrix build_batch_adjacency(const CsrView& g, const SubgraphBatch& batch,
                                bool add_self_loops = true);

/// Same adjacency in the tile-CSR layout, built straight from the global CSR
/// — the dense block-diagonal matrix is never allocated and no dense tile
/// scan runs. Memory is ~the nonzero-tile ratio of the dense layout
/// (Figure 8: typically 5–15 % for batched subgraphs).
TileSparseBitMatrix build_batch_adjacency_tiles(const CsrView& g,
                                                const SubgraphBatch& batch,
                                                bool add_self_loops = true);

/// Same adjacency in local CSR form, for the fp32 SpMM baseline.
CsrGraph build_batch_csr(const CsrView& g, const SubgraphBatch& batch,
                         bool add_self_loops = true);

/// Gathers the feature rows of the batch's nodes: (batch.size() x dim) —
/// from the in-core matrix or through the out-of-core feature store, via the
/// implicit-converting `store::FeatureSource`.
MatrixF gather_rows(const store::FeatureSource& features,
                    const std::vector<i32>& nodes);

/// Everything the graph layer prepares for one batch, in both engine modes:
/// the precomputed engine materialises one per batch up front, the streaming
/// pipeline builds them lazily (peak-resident O(pipeline_depth), not
/// O(epoch)). The model layer adds its packed input planes on top.
struct PreparedBatch {
  SubgraphBatch batch;
  /// Tile-CSR adjacency, built straight from the global CSR.
  TileSparseBitMatrix adj_tiles;
  CsrGraph local;     // same adjacency as CSR (fp32 baseline path)
  MatrixF features;   // gathered fp32 features

  /// Resident bytes of the graph-side prepared state (the streaming
  /// pipeline's peak-memory accounting unit).
  [[nodiscard]] i64 prepared_bytes() const;
};

/// Builds the complete graph-side state for one batch from the global CSR +
/// feature matrix. The single per-batch prepare entry point shared by the
/// precomputed engine constructor and the streaming pipeline's prepare stage
/// — both modes see bit-identical batch data by construction.
/// `build_fp32_csr=false` skips the local CSR (it feeds only the fp32
/// baseline path; the streaming quantized pipeline never touches it, and
/// its edge sort is a large share of the prepare cost).
PreparedBatch prepare_batch_data(const CsrView& g,
                                 const store::FeatureSource& features,
                                 const SubgraphBatch& batch,
                                 bool add_self_loops = true,
                                 bool build_fp32_csr = true);

/// Gathers labels.
std::vector<i32> gather_labels(const std::vector<i32>& labels,
                               const std::vector<i32>& nodes);

}  // namespace qgtc
