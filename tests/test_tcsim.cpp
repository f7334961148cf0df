// Tests for the tensor-core substrate: bmma semantics vs a naive bit loop,
// fragment load/store round-trips, the zero-tile ballot test, and counters.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "kernels/bmm.hpp"
#include "tcsim/wmma.hpp"

namespace qgtc::tcsim {
namespace {

/// Fills a 8 x 4-word packed row block with random bits.
void random_block(Rng& rng, u32* ptr, i64 stride, double density = 0.5) {
  for (int r = 0; r < kTileM; ++r) {
    for (int w = 0; w < kTileKWords; ++w) {
      u32 word = 0;
      for (int b = 0; b < 32; ++b) {
        word |= static_cast<u32>(rng.next_bool(static_cast<float>(density))) << b;
      }
      ptr[r * stride + w] = word;
    }
  }
}

int naive_dot(const u32* a, const u32* b) {
  int acc = 0;
  for (int w = 0; w < kTileKWords; ++w) {
    for (int bit = 0; bit < 32; ++bit) {
      const int av = (a[w] >> bit) & 1;
      const int bv = (b[w] >> bit) & 1;
      acc += av & bv;
    }
  }
  return acc;
}

TEST(Tcsim, Dot128MatchesNaive) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    u32 a[4], b[4];
    for (auto& w : a) w = static_cast<u32>(rng.next_u64());
    for (auto& w : b) w = static_cast<u32>(rng.next_u64());
    EXPECT_EQ(dot128(a, b), naive_dot(a, b));
  }
}

TEST(Tcsim, BmmaMatchesNaiveTile) {
  Rng rng(22);
  std::vector<u32> abuf(kTileM * kTileKWords), bbuf(kTileN * kTileKWords);
  random_block(rng, abuf.data(), kTileKWords);
  random_block(rng, bbuf.data(), kTileKWords);

  FragmentA a;
  FragmentB b;
  load_matrix_sync(a, abuf.data(), kTileKWords);
  load_matrix_sync(b, bbuf.data(), kTileKWords);
  FragmentC c, d;
  c.fill(5);  // non-zero C exercises the "+ C" part of D = A*B + C
  bmma_sync(d, a, b, c);

  for (int i = 0; i < kTileM; ++i) {
    for (int j = 0; j < kTileN; ++j) {
      const int expect =
          5 + naive_dot(&abuf[static_cast<std::size_t>(i * kTileKWords)],
                        &bbuf[static_cast<std::size_t>(j * kTileKWords)]);
      EXPECT_EQ(d.acc[static_cast<std::size_t>(i * kTileN + j)], expect);
    }
  }
}

TEST(Tcsim, StoreMatrixRoundTrip) {
  FragmentC c;
  for (int i = 0; i < 64; ++i) c.acc[static_cast<std::size_t>(i)] = i * 3 - 10;
  std::vector<i32> out(8 * 16, 0);
  store_matrix_sync(out.data(), c, 16);
  for (int i = 0; i < kTileM; ++i) {
    for (int j = 0; j < kTileN; ++j) {
      EXPECT_EQ(out[static_cast<std::size_t>(i * 16 + j)], i * 8 * 3 + j * 3 - 10);
    }
  }
}

TEST(Tcsim, TileIsZero) {
  std::vector<u32> buf(kTileM * kTileKWords, 0);
  EXPECT_TRUE(tile_is_zero(buf.data(), kTileKWords));
  buf[5] = 1;  // one bit anywhere flips the ballot
  EXPECT_FALSE(tile_is_zero(buf.data(), kTileKWords));
  buf[5] = 0;
  buf[kTileM * kTileKWords - 1] = 0x80000000u;
  EXPECT_FALSE(tile_is_zero(buf.data(), kTileKWords));
}

TEST(Tcsim, TileIsZeroRespectsStride) {
  // Tile sits inside a wider matrix: stride > kTileKWords; bits outside the
  // tile's 4 words must not affect the verdict.
  const i64 stride = 10;
  std::vector<u32> buf(kTileM * stride, 0xffffffffu);
  for (int r = 0; r < kTileM; ++r) {
    for (int w = 0; w < kTileKWords; ++w) buf[static_cast<std::size_t>(r * stride + w)] = 0;
  }
  EXPECT_TRUE(tile_is_zero(buf.data(), stride));
}

TEST(Tcsim, CountersTrackOps) {
  const ExecutionContext& global = ExecutionContext::default_context();
  const Counters before = global.counters();
  FragmentA a;
  FragmentB b;
  FragmentC c;
  std::vector<u32> buf(kTileM * kTileKWords, 0);
  load_matrix_sync(a, buf.data(), kTileKWords);
  load_matrix_sync(b, buf.data(), kTileKWords);
  bmma_sync(c, a, b, c);
  bmma_sync(c, a, b, c);
  const Counters after = global.counters();
  EXPECT_EQ(after.frag_loads_a - before.frag_loads_a, 1u);
  EXPECT_EQ(after.frag_loads_b - before.frag_loads_b, 1u);
  EXPECT_EQ(after.bmma_ops - before.bmma_ops, 2u);
}

TEST(Tcsim, ResetCountersZeroes) {
  // A context without private counters shares the default context's block,
  // so resetting it zeroes what the default context reads.
  FragmentA a;
  std::vector<u32> buf(kTileM * kTileKWords, 0);
  load_matrix_sync(a, buf.data(), kTileKWords);
  ExecutionContext shared(default_backend(), /*private_counters=*/false);
  EXPECT_GT(shared.counters().frag_loads_a, 0u);
  shared.reset_counters();
  const Counters c = ExecutionContext::default_context().counters();
  EXPECT_EQ(c.bmma_ops, 0u);
  EXPECT_EQ(c.frag_loads_a, 0u);
}

// Threads that have exited still count: two short-lived threads run on the
// default context one after the other (the second typically reuses the
// first's thread-local storage), and the default context must read the sum
// of their tile ops, each counted once.
TEST(Tcsim, DefaultContextCountsExitedThreads) {
  Rng rng(17);
  const auto packed = [&](i64 rows, i64 cols, BitLayout layout) {
    MatrixI32 m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_bool(0.5f) ? 1 : 0;
    return pack_nonzero(m, layout);
  };
  const BitMatrix a_small = packed(16, 128, BitLayout::kRowMajorK);
  const BitMatrix a_large = packed(48, 128, BitLayout::kRowMajorK);
  const BitMatrix b = packed(128, 8, BitLayout::kColMajorK);

  const ExecutionContext& global = ExecutionContext::default_context();
  const u64 before = global.counters().bmma_ops;
  for (const BitMatrix* a : {&a_small, &a_large}) {
    std::thread([&] { (void)bmm(*a, b); }).join();
  }
  // 2 + 6 row tiles x 1 column tile x 1 K tile.
  EXPECT_EQ(global.counters().bmma_ops - before, 8u);
}

}  // namespace
}  // namespace qgtc::tcsim
