// Bandwidth-optimised subgraph packing (paper §4.6): instead of shipping the
// dense fp32 adjacency and a separate fp32 embedding transfer, the packed
// 1-bit adjacency and the low-bit embedding planes are compressed into one
// compound memory object (the torch `register_buffer` trick) and moved in a
// single transfer.
#pragma once

#include "bittensor/stacked.hpp"
#include "bittensor/tile_sparse.hpp"
#include "transfer/pcie.hpp"

namespace qgtc::transfer {

struct PackedSubgraph {
  i64 total_bytes = 0;
  i64 adjacency_bytes = 0;
  i64 embedding_bytes = 0;
  int transfers = 1;           // the compound object moves as one transfer
  double modeled_seconds = 0;  // PCIe model wire time
  double staging_seconds = 0;  // measured memcpy time into the compound object
};

/// Packs a batch (tile-CSR binary adjacency + quantized embedding planes)
/// into one compound staging buffer and reports byte/time accounting. The
/// adjacency ships only its stored tile payloads plus their u32 column
/// indices and row offsets, so `adjacency_bytes` is
///   nnz_tiles * 128 + (nnz_tiles + tiles_m + 1) * 4
/// instead of the dense plane's pad8(N) * pad128(N) / 8 — ~the nonzero-tile
/// ratio of the dense footprint (§4.6 accounting on the true nonzero
/// working set).
PackedSubgraph pack_batch_tiles(const TileSparseBitMatrix& adjacency,
                                const StackedBitTensor& embeddings,
                                StagingBuffer& staging, const PcieModel& pcie);

/// Baseline accounting (paper's "basic approach"): dense fp32 adjacency plus
/// a standalone fp32 embedding transfer (two transfers, two latencies).
PackedSubgraph dense_fp32_baseline(i64 num_nodes, i64 feature_dim,
                                   const PcieModel& pcie);

/// Accounting for a batch whose prepared payload is already device-resident
/// (a precomputed or pinned batch — the GPU-resident-reuse substitute, see
/// DESIGN.md): nothing crosses the wire, no staging copy, zero transfers.
inline PackedSubgraph resident_reuse() {
  PackedSubgraph p;
  p.transfers = 0;
  return p;
}

}  // namespace qgtc::transfer
