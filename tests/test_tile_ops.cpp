// Cross-checks every substrate backend's tile ops (mma_panel, then the
// shared flush — the path the kernels actually run) against the semantic
// reference tcsim::bmma_sync, including shift weighting, uint32 wrap at
// extreme shifts, strided operands (B through tcsim::pack_b), strided
// flush, whole
// multi-plane panels of several K tiles and output-column tiles, live-half
// masks (a 64-bit K half the schedule marks dead), and the assign contract
// (every tile of the panel written, zeros for an empty schedule, nothing
// past the panel).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tcsim/backend.hpp"
#include "tcsim/wmma.hpp"

namespace qgtc {
namespace {

struct TilePair {
  std::vector<u32> a;  // 8 rows x stride words
  std::vector<u32> b;  // 8 cols x stride words
  i64 stride;
};

TilePair random_tiles(u64 seed, i64 stride = kTileKWords) {
  Rng rng(seed);
  TilePair t;
  t.stride = stride;
  t.a.resize(static_cast<std::size_t>(kTileM * stride));
  t.b.resize(static_cast<std::size_t>(kTileN * stride));
  for (auto& w : t.a) w = static_cast<u32>(rng.next_u64());
  for (auto& w : t.b) w = static_cast<u32>(rng.next_u64());
  return t;
}

std::array<i32, 64> reference_tile(const TilePair& t) {
  tcsim::FragmentA fa;
  tcsim::FragmentB fb;
  tcsim::FragmentC fc, out;
  tcsim::load_matrix_sync(fa, t.a.data(), t.stride);
  tcsim::load_matrix_sync(fb, t.b.data(), t.stride);
  tcsim::bmma_sync(out, fa, fb, fc);
  std::array<i32, 64> r{};
  std::copy(out.acc.begin(), out.acc.end(), r.begin());
  return r;
}

/// One single-tile panel into `tile` (a u32[64]): A tile and B tile both
/// with rows/columns `t.stride` u32 apart, B packed into one slice.
void run_tile_op(const tcsim::SubstrateBackend& be, u32* tile, const TilePair& t,
                 int shift) {
  const tcsim::SparseTileRef ref{t.a.data(), 0};
  u64 slice[tcsim::kSliceWords];
  const u32* b = t.b.data();
  tcsim::pack_b(slice, &b, 1, t.stride, 1, 1);
  tcsim::PanelJob job;
  job.a_tiles = &ref;
  job.n_tiles = 1;
  job.a_stride = t.stride;
  job.b = slice;
  job.shift = shift;
  be.mma_panel(tile, job);
}

/// One backend tile op: one single-tile panel, flushed into `out`.
std::array<i32, 64> backend_tile(const tcsim::SubstrateBackend& be,
                                 const TilePair& t, int shift,
                                 i32 out_fill = 0) {
  alignas(64) u32 tile[kTileM * kTileN];
  run_tile_op(be, tile, t, shift);
  std::array<i32, 64> out;
  out.fill(out_fill);
  tcsim::flush(out.data(), kTileN, tile);
  return out;
}

class TileOpsAllBackends
    : public ::testing::TestWithParam<tcsim::BackendKind> {};

TEST_P(TileOpsAllBackends, MatchesWmmaAnd) {
  const auto& be = tcsim::backend(GetParam());
  for (u64 seed = 0; seed < 8; ++seed) {
    const TilePair t = random_tiles(seed);
    EXPECT_EQ(backend_tile(be, t, 0), reference_tile(t))
        << be.name() << " seed " << seed;
  }
}

TEST_P(TileOpsAllBackends, ShiftWeighting) {
  const auto& be = tcsim::backend(GetParam());
  const TilePair t = random_tiles(7);
  const auto base = reference_tile(t);
  const auto got = backend_tile(be, t, /*shift=*/5);
  for (int e = 0; e < 64; ++e) {
    EXPECT_EQ(got[static_cast<std::size_t>(e)],
              base[static_cast<std::size_t>(e)] << 5);
  }
}

TEST_P(TileOpsAllBackends, FlushAddsIntoExisting) {
  const auto& be = tcsim::backend(GetParam());
  const TilePair t = random_tiles(9);
  const auto base = reference_tile(t);
  const auto got = backend_tile(be, t, 0, /*out_fill=*/10);
  for (int e = 0; e < 64; ++e) {
    EXPECT_EQ(got[static_cast<std::size_t>(e)],
              base[static_cast<std::size_t>(e)] + 10);
  }
}

TEST_P(TileOpsAllBackends, ExtremeShiftContributesZeroMod32) {
  // A shift >= 32 must contribute exactly 0 to the uint32-wrapped result —
  // the defined-wrap contract the 31-bit configurations rely on.
  const auto& be = tcsim::backend(GetParam());
  const TilePair t = random_tiles(10);
  for (const int shift : {32, 40, 60, 63}) {
    alignas(64) u32 tile[kTileM * kTileN];
    std::fill(std::begin(tile), std::end(tile), 0xDEADBEEFu);
    run_tile_op(be, tile, t, shift);
    for (const u32 v : tile) EXPECT_EQ(v, 0u) << be.name() << " shift " << shift;
  }
}

TEST_P(TileOpsAllBackends, StridedTiles) {
  // Tiles embedded in a wider matrix (stride > 4 words) must read only their
  // own 4 words per line.
  const auto& be = tcsim::backend(GetParam());
  const TilePair wide = random_tiles(11, /*stride=*/9);
  const auto got = backend_tile(be, wide, 0);

  TilePair tight = wide;
  tight.stride = kTileKWords;
  tight.a.assign(static_cast<std::size_t>(kTileM * kTileKWords), 0);
  tight.b.assign(static_cast<std::size_t>(kTileN * kTileKWords), 0);
  for (int r = 0; r < kTileM; ++r) {
    for (int w = 0; w < kTileKWords; ++w) {
      tight.a[static_cast<std::size_t>(r * kTileKWords + w)] =
          wide.a[static_cast<std::size_t>(r * wide.stride + w)];
      tight.b[static_cast<std::size_t>(r * kTileKWords + w)] =
          wide.b[static_cast<std::size_t>(r * wide.stride + w)];
    }
  }
  EXPECT_EQ(got, backend_tile(be, tight, 0));
}

TEST_P(TileOpsAllBackends, StridedFlush) {
  // flush with an output stride wider than the tile must only touch the
  // 8x8 window (the kernels flush straight into padded C rows).
  const auto& be = tcsim::backend(GetParam());
  const TilePair t = random_tiles(12);
  const auto base = reference_tile(t);

  alignas(64) u32 tile[kTileM * kTileN];
  run_tile_op(be, tile, t, 0);

  const i64 out_stride = 13;
  std::vector<i32> out(static_cast<std::size_t>(kTileM * out_stride), -7);
  tcsim::flush(out.data(), out_stride, tile);
  for (int i = 0; i < kTileM; ++i) {
    for (i64 j = 0; j < out_stride; ++j) {
      const i32 v = out[static_cast<std::size_t>(i * out_stride + j)];
      if (j < kTileN) {
        EXPECT_EQ(v, base[static_cast<std::size_t>(i * kTileN + j)] - 7);
      } else {
        EXPECT_EQ(v, -7) << "flush wrote outside the 8x8 window";
      }
    }
  }
}

/// Operands of one panel job: `kPanelKTiles` K tiles of A per plane and
/// `nb` output-column tiles of B per plane, with every (t, ab) tile either
/// stored contiguously (tile-CSR, stride kTileKWords) or in place in a
/// wider dense row (stride a_stride), and B columns b_stride > kTileKWords
/// apart. K tile t of the schedule is (3t + 1) mod kPanelKTiles.
constexpr i64 kPanelKTiles = 8;

struct PanelCase {
  int a_planes, b_planes;
  i64 nb, n_tiles;
  int shift;
  bool dense;
};

struct PanelOperands {
  std::vector<u32> a;  // tile-CSR payload or dense planes
  std::vector<u32> b;  // b_planes x (nb * 8 columns) x b_stride
  std::vector<tcsim::SparseTileRef> refs;
  i64 a_stride, b_stride;
  std::vector<u64> packed_b;  // b through tcsim::pack_b, filled by panel_job
};

PanelOperands panel_operands(const PanelCase& c, u64 seed) {
  Rng rng(seed);
  PanelOperands o;
  o.b_stride = kPanelKTiles * kTileKWords + 3;
  o.a_stride = c.dense ? kPanelKTiles * kTileKWords + 5 : kTileKWords;
  const i64 a_words = c.dense ? c.a_planes * kTileM * o.a_stride
                              : c.n_tiles * c.a_planes * kTileM * kTileKWords;
  o.a.resize(static_cast<std::size_t>(a_words));
  o.b.resize(static_cast<std::size_t>(c.b_planes * c.nb * kTileN * o.b_stride));
  for (auto& w : o.a) w = static_cast<u32>(rng.next_u64());
  for (auto& w : o.b) w = static_cast<u32>(rng.next_u64());
  for (i64 t = 0; t < c.n_tiles; ++t) {
    const i64 k = (3 * t + 1) % kPanelKTiles;
    for (int ab = 0; ab < c.a_planes; ++ab) {
      const u32* tile =
          c.dense ? o.a.data() + ab * kTileM * o.a_stride + k * kTileKWords
                  : o.a.data() + (t * c.a_planes + ab) * kTileM * kTileKWords;
      o.refs.push_back({tile, k});
    }
  }
  return o;
}

/// Gives schedule tile t the live mask `live` (in every plane's ref) and
/// zeroes each half it declares dead: in every A plane, or, for a dead high
/// half with `in_b`, in tile t's K slice of every B column and plane (as B's
/// padding past K does). With `partial`, a live tile instead has half t % 2
/// zeroed in all A planes but the last, which must not make it dead.
void set_live(PanelOperands& o, const PanelCase& c, i64 t, int live, bool in_b,
              bool partial = false) {
  for (int ab = 0; ab < c.a_planes; ++ab) {
    tcsim::SparseTileRef& r = o.refs[static_cast<std::size_t>(t * c.a_planes + ab)];
    r.live = live;
    u32* tile = o.a.data() + (r.a - o.a.data());
    for (int h = 0; h < 2; ++h) {
      const bool dead = ((live >> h) & 1) == 0 && !(h == 1 && in_b);
      const bool some_planes = partial && live == 3 && h == t % 2 && ab + 1 < c.a_planes;
      if (!dead && !some_planes) continue;
      for (int i = 0; i < kTileM; ++i) {
        tile[i * o.a_stride + 2 * h] = tile[i * o.a_stride + 2 * h + 1] = 0;
      }
    }
  }
  if (in_b && (live & 2) == 0) {
    const i64 k = o.refs[static_cast<std::size_t>(t * c.a_planes)].k_tile;
    for (i64 col = 0; col < c.b_planes * c.nb * kTileN; ++col) {
      u32* slice = o.b.data() + col * o.b_stride + k * kTileKWords;
      slice[2] = slice[3] = 0;
    }
  }
}

/// Reference for output-column tile `blk`: sum over (t, ab, bb) of
/// bmma_sync(A(t, ab), B(bb, blk, k_t)) << (shift + ab + bb), uint32 wrap
/// (terms shifted by 32 or more vanish).
std::array<u32, 64> panel_reference(const PanelCase& c, const PanelOperands& o,
                                    i64 blk) {
  std::array<u32, 64> ref{};
  for (i64 t = 0; t < c.n_tiles; ++t) {
    for (int ab = 0; ab < c.a_planes; ++ab) {
      const tcsim::SparseTileRef& r =
          o.refs[static_cast<std::size_t>(t * c.a_planes + ab)];
      tcsim::FragmentA fa;
      tcsim::load_matrix_sync(fa, r.a, o.a_stride);
      for (int bb = 0; bb < c.b_planes; ++bb) {
        const u32* b = o.b.data() +
                       (bb * c.nb + blk) * kTileN * o.b_stride +
                       r.k_tile * kTileKWords;
        tcsim::FragmentB fb;
        tcsim::FragmentC zero, out;
        tcsim::load_matrix_sync(fb, b, o.b_stride);
        tcsim::bmma_sync(out, fa, fb, zero);
        const int s = c.shift + ab + bb;
        if (s >= 32) continue;
        for (int e = 0; e < 64; ++e) {
          ref[static_cast<std::size_t>(e)] +=
              static_cast<u32>(out.acc[static_cast<std::size_t>(e)]) << s;
        }
      }
    }
  }
  return ref;
}

/// The panel job over `o` that `c` describes, B packed as of this call.
tcsim::PanelJob panel_job(const PanelCase& c, PanelOperands& o) {
  std::vector<const u32*> cols;
  for (int bb = 0; bb < c.b_planes; ++bb) {
    cols.push_back(o.b.data() + bb * c.nb * kTileN * o.b_stride);
  }
  o.packed_b.resize(static_cast<std::size_t>(c.nb * kPanelKTiles * c.b_planes *
                                             tcsim::kSliceWords));
  tcsim::pack_b(o.packed_b.data(), cols.data(), c.b_planes, o.b_stride, c.nb,
                kPanelKTiles);
  tcsim::PanelJob job;
  job.a_tiles = o.refs.data();
  job.n_tiles = c.n_tiles;
  job.a_planes = c.a_planes;
  job.a_stride = o.a_stride;
  job.b = o.packed_b.data();
  job.b_planes = c.b_planes;
  job.b_tiles_k = kPanelKTiles;
  job.nb = c.nb;
  job.shift = c.shift;
  return job;
}

/// Runs `job` into a tile buffer of `buffer_tiles` tiles pre-filled with
/// garbage from `seed` and checks that the panel assigns panel_reference to
/// each of its nb tiles (zeros for an empty schedule) and never writes a
/// word past them.
void expect_panel_matches(const tcsim::SubstrateBackend& be, const PanelCase& c,
                          const PanelOperands& o, const tcsim::PanelJob& job,
                          u64 seed, const std::string& where,
                          i64 buffer_tiles = 0) {
  buffer_tiles = std::max(buffer_tiles, c.nb + 1);
  std::vector<u32> tiles(static_cast<std::size_t>(buffer_tiles * kTileM * kTileN));
  Rng fill(seed * 7);
  for (auto& w : tiles) w = static_cast<u32>(fill.next_u64());
  const std::vector<u32> before = tiles;
  be.mma_panel(tiles.data(), job);

  for (i64 blk = 0; blk < c.nb; ++blk) {
    const auto ref = panel_reference(c, o, blk);
    for (int e = 0; e < 64; ++e) {
      ASSERT_EQ(tiles[static_cast<std::size_t>(blk * 64 + e)],
                ref[static_cast<std::size_t>(e)])
          << where << " blk " << blk << " elem " << e;
    }
  }
  const auto used = static_cast<std::ptrdiff_t>(c.nb * kTileM * kTileN);
  ASSERT_TRUE(std::equal(tiles.begin() + used, tiles.end(), before.begin() + used))
      << where << ": words past the panel were written";
}

std::string panel_where(const tcsim::SubstrateBackend& be, const PanelCase& c) {
  return std::string(be.name()) + " sa=" + std::to_string(c.a_planes) +
         " sb=" + std::to_string(c.b_planes) + " nb=" + std::to_string(c.nb) +
         " tiles=" + std::to_string(c.n_tiles) +
         " shift=" + std::to_string(c.shift) +
         (c.dense ? " dense" : " csr");
}

TEST_P(TileOpsAllBackends, PanelMatchesPerTileReference) {
  // Every (planes, nb, n_tiles, shift, A layout) combination.
  const auto& be = tcsim::backend(GetParam());
  u64 seed = 1000;
  for (const int sa : {1, 3, 8}) {
    for (const int sb : {1, 3, 8}) {
      for (const i64 nb : {1, 5, 8}) {
        for (const i64 n_tiles : {0, 1, 7}) {
          for (const int shift : {0, 31, 60}) {
            for (const bool dense : {false, true}) {
              const PanelCase c{sa, sb, nb, n_tiles, shift, dense};
              PanelOperands o = panel_operands(c, ++seed);
              const tcsim::PanelJob job = panel_job(c, o);
              ASSERT_NO_FATAL_FAILURE(
                  expect_panel_matches(be, c, o, job, seed, panel_where(be, c)));
            }
          }
        }
      }
    }
  }
}

TEST(TileOps, LiveHalvesMatchReference) {
  // Schedules that mix live masks 1, 2 and 3 on every backend. Each dead
  // half is zero in every A plane, or (high halves only, as past K) in B,
  // and some live tiles hold a half that is zero in all A planes but one.
  // The scalar reference ignores the masks; every backend must match it.
  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const auto& be = tcsim::backend(kind);
    u64 seed = 5000;
    for (const int sa : {1, 3, 8, 17}) {
      for (const int sb : {1, 3, 8, 17}) {
        for (const i64 nb : {1, 5, 8}) {
          for (const i64 n_tiles : {1, 2, 5}) {
            for (const int shift : {0, 31, 60}) {
              const bool dense = seed % 2 == 0;
              const PanelCase c{sa, sb, nb, n_tiles, shift, dense};
              PanelOperands o = panel_operands(c, ++seed);
              for (i64 t = 0; t < n_tiles; ++t) {
                const int live = static_cast<int>((seed + static_cast<u64>(t)) % 3) + 1;
                set_live(o, c, t, live, /*in_b=*/(seed + static_cast<u64>(t)) % 4 == 0,
                         /*partial=*/true);
              }
              const tcsim::PanelJob job = panel_job(c, o);
              ASSERT_NO_FATAL_FAILURE(expect_panel_matches(
                  be, c, o, job, seed, panel_where(be, c) + " mixed live"));
            }
          }
        }
      }
    }
  }
}

TEST(TileOps, PanelAssignsEveryTile) {
  // The assign contract on every backend, for every live mask: a tile
  // buffer of 8 (the widest panel) tiles full of garbage, a panel narrower
  // than that, and schedules of 0, 1 and 7 K tiles. Each of the nb tiles
  // must equal the reference — zeros for the empty schedule, which
  // aggregation rows with no stored tile produce, and for a schedule whose
  // every half is dead — and every word past them must keep its garbage.
  constexpr i64 kBufferTiles = 8;
  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const auto& be = tcsim::backend(kind);
    u64 seed = 9000;
    for (const int live : {3, 1, 2, 0}) {
      for (const i64 nb : {1, 3}) {
        for (const i64 n_tiles : {0, 1, 7}) {
          for (const int sa : {1, 3}) {
            const PanelCase c{sa, 4, nb, n_tiles, 2, seed % 2 == 0};
            PanelOperands o = panel_operands(c, ++seed);
            for (i64 t = 0; t < n_tiles; ++t) set_live(o, c, t, live, seed % 3 == 0);
            const tcsim::PanelJob job = panel_job(c, o);
            ASSERT_NO_FATAL_FAILURE(expect_panel_matches(
                be, c, o, job, seed,
                panel_where(be, c) + " live=" + std::to_string(live), kBufferTiles));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, TileOpsAllBackends,
                         ::testing::ValuesIn(tcsim::all_backends()),
                         [](const auto& info) {
                           return info.param == tcsim::BackendKind::kScalar
                                      ? "scalar"
                                      : "blocked";
                         });

}  // namespace
}  // namespace qgtc
