// Transfer substrate tests: PCIe model math, staging buffer, packed-vs-dense
// byte accounting (paper §4.6).
#include <gtest/gtest.h>

#include "transfer/packing.hpp"

namespace qgtc::transfer {
namespace {

/// An n-node adjacency holding only self-loops, as a tile-CSR.
TileSparseBitMatrix diagonal_adjacency(i64 n) {
  BitMatrix adj(n, n, BitLayout::kRowMajorK);
  for (i64 i = 0; i < n; ++i) adj.set(i, i, true);
  return TileSparseBitMatrix::from_bit_matrix(adj);
}

TEST(Pcie, TransferSecondsMath) {
  PcieModel m;
  m.bandwidth_gbps = 32.0;
  m.latency_us = 10.0;
  // 32 GB at 32 GB/s = 1 s (+10 us latency).
  EXPECT_NEAR(m.transfer_seconds(32LL << 30), 1.0742, 0.08);
  // Zero bytes still pays latency.
  EXPECT_NEAR(m.transfer_seconds(0), 10e-6, 1e-9);
}

TEST(Staging, AppendsAndMeasures) {
  StagingBuffer s;
  const u32 a[4] = {1, 2, 3, 4};
  const u32 b[2] = {9, 10};
  EXPECT_EQ(s.stage(a, sizeof(a)), 0);
  EXPECT_EQ(s.stage(b, sizeof(b)), static_cast<i64>(sizeof(a)));
  EXPECT_EQ(s.bytes(), static_cast<i64>(sizeof(a) + sizeof(b)));
  // Contents preserved in order.
  u32 back[6];
  std::memcpy(back, s.data(), sizeof(back));
  EXPECT_EQ(back[0], 1u);
  EXPECT_EQ(back[4], 9u);
  s.clear();
  EXPECT_EQ(s.bytes(), 0);
}

TEST(Packing, PackedBytesMatchComponents) {
  const TileSparseBitMatrix adj = diagonal_adjacency(100);
  MatrixI32 q(100, 32, 2);
  const auto planes =
      StackedBitTensor::decompose(q, 3, BitLayout::kColMajorK);
  StagingBuffer staging;
  PcieModel pcie;
  const PackedSubgraph p = pack_batch_tiles(adj, planes, staging, pcie);
  EXPECT_EQ(p.adjacency_bytes, adj.bytes());
  EXPECT_EQ(p.embedding_bytes, planes.bytes());
  EXPECT_EQ(p.total_bytes, adj.bytes() + planes.bytes());
  EXPECT_EQ(p.transfers, 1);
  EXPECT_EQ(staging.bytes(), p.total_bytes);
  EXPECT_GT(p.modeled_seconds, 0.0);
}

TEST(Packing, DenseBaselineAccounting) {
  PcieModel pcie;
  const PackedSubgraph d = dense_fp32_baseline(100, 32, pcie);
  EXPECT_EQ(d.adjacency_bytes, 100 * 100 * 4);
  EXPECT_EQ(d.embedding_bytes, 100 * 32 * 4);
  EXPECT_EQ(d.transfers, 2);
  // Two transfers pay two latencies.
  EXPECT_GT(d.modeled_seconds, pcie.transfer_seconds(d.total_bytes));
}

TEST(Packing, PackedBeatsDense) {
  // The §4.6 claim: packed low-bit payload is far smaller than dense fp32.
  const i64 n = 512, dim = 128;
  const int bits = 4;
  const TileSparseBitMatrix adj = diagonal_adjacency(n);
  MatrixI32 q(n, dim, 3);
  const auto planes = StackedBitTensor::decompose(q, bits, BitLayout::kColMajorK);
  StagingBuffer staging;
  PcieModel pcie;
  const PackedSubgraph p = pack_batch_tiles(adj, planes, staging, pcie);
  const PackedSubgraph d = dense_fp32_baseline(n, dim, pcie);
  // Adjacency: 32x smaller (1 bit vs fp32). Embedding: 8x (4 bit vs fp32).
  EXPECT_LT(p.total_bytes * 8, d.total_bytes);
  EXPECT_LT(p.modeled_seconds, d.modeled_seconds);
}

}  // namespace
}  // namespace qgtc::transfer
