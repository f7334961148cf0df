// Software tensor-core substrate.
//
// Reproduces the semantics of NVIDIA's 1-bit WMMA path (paper §2.3,
// Listing 1): fragments are loaded tile-by-tile, `bmma_sync` computes
// D = popcount(A & B) + C over an 8x8x128 tile, and results are stored from
// the accumulator fragment. The tile-shape constraints (M = N = 8, K = 128)
// are enforced exactly, because QGTC's packing/padding/jumping logic is
// driven by them.
//
// The paper used the hardware unit; we execute the same contract on CPU
// words (see DESIGN.md substitution table). These reference ops count into
// the default ExecutionContext's counters, which let tests and benches
// verify optimisation claims (e.g. zero-tile jumping really skips tile ops).
#pragma once

#include <array>
#include <bit>
#include <cstring>

#include "common/defs.hpp"
#include "tcsim/exec_context.hpp"

namespace qgtc::tcsim {

/// A-operand fragment: 8 rows x 128 bits, packed 4 x u32 per row
/// (row-major along K — the paper's "column-wise compression" layout).
struct FragmentA {
  std::array<u32, kTileM * kTileKWords> bits{};
};

/// B-operand fragment: 8 columns x 128 bits, packed 4 x u32 per column
/// (column-major along K — the paper's "row-wise compression" layout).
struct FragmentB {
  std::array<u32, kTileN * kTileKWords> bits{};
};

/// Accumulator fragment: 8x8 int32 (uint32 on hardware; all QGTC values are
/// non-negative and in-range, asserted in debug builds).
struct FragmentC {
  std::array<i32, kTileM * kTileN> acc{};
  void fill(i32 v) { acc.fill(v); }
};

/// Load an A fragment: 8 consecutive rows starting at `ptr`, each row
/// `stride_words` u32 apart; 4 words (128 bits) per row are consumed.
inline void load_matrix_sync(FragmentA& frag, const u32* ptr, i64 stride_words) {
  for (int r = 0; r < kTileM; ++r) {
    std::memcpy(&frag.bits[static_cast<std::size_t>(r) * kTileKWords],
                ptr + r * stride_words, kTileKWords * sizeof(u32));
  }
  ExecutionContext::default_context().note({.frag_loads_a = 1});
}

/// Load a B fragment: 8 consecutive K-packed columns starting at `ptr`, each
/// column `stride_words` u32 apart.
inline void load_matrix_sync(FragmentB& frag, const u32* ptr, i64 stride_words) {
  for (int c = 0; c < kTileN; ++c) {
    std::memcpy(&frag.bits[static_cast<std::size_t>(c) * kTileKWords],
                ptr + c * stride_words, kTileKWords * sizeof(u32));
  }
  ExecutionContext::default_context().note({.frag_loads_b = 1});
}

/// 128-bit AND+popcount (paper Eq. 7) between one fragment row/column pair,
/// executed as two u64 lanes.
inline i32 dot128(const u32* a, const u32* b) {
  u64 a0, a1, b0, b1;
  std::memcpy(&a0, a, 8);
  std::memcpy(&a1, a + 2, 8);
  std::memcpy(&b0, b, 8);
  std::memcpy(&b1, b + 2, 8);
  return static_cast<i32>(std::popcount(a0 & b0) + std::popcount(a1 & b1));
}

/// D = A (8x128 bits) x B (128x8 bits) + C, the `wmma::bmma_sync` contract.
inline void bmma_sync(FragmentC& d, const FragmentA& a, const FragmentB& b,
                      const FragmentC& c) {
  for (int i = 0; i < kTileM; ++i) {
    const u32* arow = &a.bits[static_cast<std::size_t>(i) * kTileKWords];
    for (int j = 0; j < kTileN; ++j) {
      const u32* bcol = &b.bits[static_cast<std::size_t>(j) * kTileKWords];
      d.acc[static_cast<std::size_t>(i) * kTileN + j] =
          c.acc[static_cast<std::size_t>(i) * kTileN + j] + dot128(arow, bcol);
    }
  }
  ExecutionContext::default_context().note({.bmma_ops = 1});
}

/// Store an accumulator fragment to row-major int32 memory with `stride`
/// elements between rows.
inline void store_matrix_sync(i32* ptr, const FragmentC& frag, i64 stride) {
  for (int r = 0; r < kTileM; ++r) {
    std::memcpy(ptr + r * stride, &frag.acc[static_cast<std::size_t>(r) * kTileN],
                kTileN * sizeof(i32));
  }
  ExecutionContext::default_context().note({.frag_stores = 1});
}

/// The zero-tile test from paper §4.3, split at bit 64: OR-reduce each
/// row's words (the uint4_v load + bitwise OR) across the 8 rows, the low
/// two and the high two apart. Bit h of the result is set when words 2h and
/// 2h + 1 (the tile's 64-bit K half h) hold a set bit in some row; 0 means
/// the whole 8x128 tile is zero. Operates directly on memory so callers can
/// skip the fragment load entirely. Feeds SparseTileRef::live.
inline int tile_live_halves(const u32* ptr, i64 stride_words) {
  u32 lo = 0, hi = 0;
  for (int r = 0; r < kTileM; ++r) {
    const u32* row = ptr + r * stride_words;
    lo |= row[0] | row[1];
    hi |= row[2] | row[3];
  }
  return (lo != 0 ? 1 : 0) | (hi != 0 ? 2 : 0);
}

/// True when the whole 8x128 tile is zero.
inline bool tile_is_zero(const u32* ptr, i64 stride_words) {
  return tile_live_halves(ptr, stride_words) == 0;
}

}  // namespace qgtc::tcsim
