#include "transfer/packing.hpp"

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace qgtc::transfer {

PackedSubgraph pack_batch_tiles(const TileSparseBitMatrix& adjacency,
                                const StackedBitTensor& embeddings,
                                StagingBuffer& staging, const PcieModel& pcie) {
  PackedSubgraph out;
  out.adjacency_bytes = adjacency.bytes();  // payload + u32 indices/offsets
  out.embedding_bytes = embeddings.bytes();
  out.total_bytes = out.adjacency_bytes + out.embedding_bytes;
  out.transfers = 1;

  // The transfer-layer span: measured staging memcpy as the duration, the
  // modelled PCIe wire time attached as a typed arg (wire time is modelled,
  // not wall time, so it must not occupy trace real estate).
  obs::SpanScope span("transfer", "pack",
                      {{"bytes", out.total_bytes},
                       {"adj_bytes", out.adjacency_bytes}});
  Timer t;
  staging.clear();
  staging.reserve(out.total_bytes);
  staging.stage(adjacency.payload_data(), adjacency.payload_bytes());
  staging.stage(adjacency.col_idx_data(),
                adjacency.nnz_tiles() * static_cast<i64>(sizeof(u32)));
  staging.stage(adjacency.row_ptr_data(),
                (adjacency.tiles_m() + 1) * static_cast<i64>(sizeof(u32)));
  for (int b = 0; b < embeddings.bits(); ++b) {
    staging.stage(embeddings.plane(b).data(), embeddings.plane(b).bytes());
  }
  out.staging_seconds = t.seconds();
  out.modeled_seconds = pcie.transfer_seconds(out.total_bytes);
  span.arg("wire_ns", static_cast<i64>(out.modeled_seconds * 1e9));
  return out;
}

PackedSubgraph dense_fp32_baseline(i64 num_nodes, i64 feature_dim,
                                   const PcieModel& pcie) {
  PackedSubgraph out;
  out.adjacency_bytes = num_nodes * num_nodes * static_cast<i64>(sizeof(float));
  out.embedding_bytes = num_nodes * feature_dim * static_cast<i64>(sizeof(float));
  out.total_bytes = out.adjacency_bytes + out.embedding_bytes;
  out.transfers = 2;  // adjacency and embeddings move separately (§4.6)
  out.staging_seconds = 0.0;
  out.modeled_seconds = pcie.transfer_seconds(out.adjacency_bytes) +
                        pcie.transfer_seconds(out.embedding_bytes);
  return out;
}

}  // namespace qgtc::transfer
