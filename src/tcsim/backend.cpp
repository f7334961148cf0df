#include "tcsim/backend.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/env.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

// The AVX-512 panel: vpopcntq on 64-bit lanes and the exact 52-bit multiply
// that weights each plane pair.
#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__) && defined(__AVX512IFMA__)
#define QGTC_AVX512_PANEL 1
#endif

// The byte-domain drain: tiles narrowed to bytes (vpackusdw/vpackuswb, BW),
// reordered or 8x8-transposed by one vpermb (VBMI), and one plane mask per
// vptestmb (BW).
#if defined(__AVX512BW__) && defined(__AVX512VBMI__)
#define QGTC_BYTE_DRAIN 1
#endif

namespace qgtc::tcsim {
namespace {

/// Decoded A-operand tile (8 rows x 128 bits) in kernel-specific layout; row
/// i starts at lanes[8 * i] (room for a 256-bit broadcast per row).
struct alignas(64) AFragment {
  u64 lanes[kTileM * 8];
};

// ------------------------------------------------------------------------
// Portable u64 micro-kernels. Accumulator layout: u64[8][8] row-major.
// The semantic reference (dot128 shape), and kBlocked's set when no vector
// set is compiled in and supported by the running CPU.
// ------------------------------------------------------------------------

struct ScalarKernels {
  /// u64 accumulator lanes per output tile (panel_by_tiles' scratch).
  static constexpr i64 kLanes = kTileM * kTileN;

  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    for (int i = 0; i < kTileM; ++i) {
      std::memcpy(&frag.lanes[static_cast<std::size_t>(i) * 8],
                  a + i * a_stride, 16);
    }
  }

  /// `b` is one packed B slice (kSliceWords).
  static void mma(u64* acc, const AFragment& frag, const u64* b, int shift) {
    for (int j = 0; j < kTileN; ++j) {
      const u64 b0 = b[j];
      const u64 b1 = b[kTileN + j];
      for (int i = 0; i < kTileM; ++i) {
        const u64 a0 = frag.lanes[static_cast<std::size_t>(i) * 8];
        const u64 a1 = frag.lanes[static_cast<std::size_t>(i) * 8 + 1];
        const u64 cnt =
            static_cast<u64>(std::popcount(a0 & b0) + std::popcount(a1 & b1));
        acc[static_cast<std::size_t>(i) * kTileN + j] += cnt << shift;
      }
    }
  }

  /// Narrow the accumulator into a row-major u32[64] tile (the uint32 wrap).
  static void reduce(u32* tile, const u64* acc) {
    for (int k = 0; k < kTileM * kTileN; ++k) tile[k] = static_cast<u32>(acc[k]);
  }
};

#if defined(QGTC_AVX512_PANEL)

/// AVX-512 VPOPCNTDQ + IFMA. The unit of work is a live 64-bit K half of a
/// surviving tile: one vector of a packed B slice holds that half of all 8
/// columns, so an output row's 8 columns cost one embedded-broadcast AND,
/// one vpopcntq and one vpmadd52luq per plane pair, and a half the schedule
/// marks dead costs nothing. The multiplier 2^(shift + ab + bb) is below
/// 2^32 (larger terms vanish at the uint32 wrap and are skipped), so each
/// product is at most 64 * 2^31 < 2^52: the 52-bit multiply is exact and
/// the u64 sum wraps as the scalar set's does.
struct Avx512Kernels {
  /// Each output tile's 8 row accumulators (lane j: column j) stay in
  /// registers, starting at zero, across the K-tile x half x A-plane x
  /// B-plane reduction, and are narrowed into the u32 tile once at its end.
  /// A words are broadcast straight from memory. cvtepi64_epi32 is spelled
  /// in its zero-masked form with every lane kept: the same instruction,
  /// without the undefined merge source that -Wmaybe-uninitialized flags.
  static void mma_panel(u32* tiles, const PanelJob& job) {
    const i64 slices_per_k = job.b_planes * kSliceWords;
    for (i64 blk = 0; blk < job.nb; ++blk) {
      __m512i acc[kTileM];
      for (int i = 0; i < kTileM; ++i) acc[i] = _mm512_setzero_si512();
      for (i64 t = 0; t < job.n_tiles; ++t) {
        const SparseTileRef* at = job.a_tiles + t * job.a_planes;
        const u64* b = job.b + (blk * job.b_tiles_k + at->k_tile) * slices_per_k;
        for (int h = 0; h < 2; ++h) {
          if (((at->live >> h) & 1) == 0) continue;
          for (int ab = 0; ab < job.a_planes; ++ab) {
            const u32* a = at[ab].a + 2 * h;
            for (int bb = 0; bb < job.b_planes && job.shift + ab + bb < 32; ++bb) {
              const __m512i weight = _mm512_set1_epi64(i64{1} << (job.shift + ab + bb));
              const __m512i bv = _mm512_loadu_si512(b + bb * kSliceWords + h * kTileN);
              for (int i = 0; i < kTileM; ++i) {
                u64 aw;
                std::memcpy(&aw, a + i * job.a_stride, sizeof aw);
                acc[i] = _mm512_madd52lo_epu64(
                    acc[i],
                    _mm512_popcnt_epi64(_mm512_and_epi64(
                        _mm512_set1_epi64(static_cast<long long>(aw)), bv)),
                    weight);
              }
            }
          }
        }
      }
      for (int i = 0; i < kTileM; ++i) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(tiles + (blk * kTileM + i) * kTileN),
            _mm512_maskz_cvtepi64_epi32(0xFF, acc[i]));
      }
    }
  }
};

#endif  // QGTC_AVX512_PANEL

#if defined(__AVX2__)

/// Per-byte popcount of a 256-bit vector via the classic 4-bit LUT
/// (sidesteps the scalar POPCNT port bottleneck on this tile shape).
inline __m256i popcount_bytes_256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// AVX2: one 256-bit vector holds two B columns. Accumulator layout:
/// __m256i[8][4] = 128 u64 per tile (per-vpsadbw-lane partial sums).
struct Avx2Kernels {
  static constexpr i64 kLanes = 128;

  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    for (int i = 0; i < kTileM; ++i) {
      const __m256i v = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i * a_stride)));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(&frag.lanes[static_cast<std::size_t>(i) * 8]), v);
    }
  }

  /// `b` is one packed B slice; bc[p] holds columns 2p and 2p + 1, each as
  /// its (low, high) K-half pair, the layout of the broadcast A row.
  static void mma(u64* acc, const AFragment& frag, const u64* b, int shift) {
    __m256i bc[4];
    for (int p = 0; p < 4; ++p) {
      const __m128i lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 2 * p));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kTileN + 2 * p));
      bc[p] = _mm256_set_m128i(_mm_unpackhi_epi64(lo, hi), _mm_unpacklo_epi64(lo, hi));
    }
    const __m256i zero = _mm256_setzero_si256();
    for (int i = 0; i < kTileM; ++i) {
      const __m256i av = _mm256_load_si256(reinterpret_cast<const __m256i*>(
          &frag.lanes[static_cast<std::size_t>(i) * 8]));
      for (int p = 0; p < 4; ++p) {
        __m256i* slot = reinterpret_cast<__m256i*>(acc + (i * 4 + p) * 4);
        const __m256i x = _mm256_and_si256(av, bc[p]);
        const __m256i sums = _mm256_sad_epu8(popcount_bytes_256(x), zero);
        _mm256_storeu_si256(
            slot, _mm256_add_epi64(_mm256_loadu_si256(slot),
                                   _mm256_slli_epi64(sums, shift)));
      }
    }
  }

  static void reduce(u32* tile, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      for (int p = 0; p < 4; ++p) {
        const u64* tmp = acc + (i * 4 + p) * 4;
        tile[i * kTileN + 2 * p] = static_cast<u32>(tmp[0] + tmp[1]);
        tile[i * kTileN + 2 * p + 1] = static_cast<u32>(tmp[2] + tmp[3]);
      }
    }
  }
};

#endif  // AVX2

#if defined(QGTC_BYTE_DRAIN)

constexpr __mmask16 kAll16 = 0xFFFF;

/// Byte `g` of the 64 lanes of v[0..3] (v[q] lane l is value 16q + l), in
/// the order two vpackusdw and one vpackuswb leave them: 128-bit lane L of
/// the result holds values 4L .. 4L + 3 of v[0], v[1], v[2], v[3] in turn.
/// Values must lie in [0, 2^31); `wide` (more than 8 planes) masks each
/// byte out first, since the packs saturate.
inline __m512i packed_bytes(const __m512i v[4], int g, bool wide) {
  const __m128i sh = _mm_cvtsi32_si128(8 * g);
  const __m512i low = _mm512_set1_epi32(0xFF);
  __m512i x[4];
  for (int q = 0; q < 4; ++q) {
    x[q] = g == 0 ? v[q] : _mm512_maskz_srl_epi32(kAll16, v[q], sh);
    if (wide) x[q] = _mm512_and_si512(x[q], low);
  }
  return _mm512_packus_epi16(_mm512_packus_epi32(x[0], x[1]),
                             _mm512_packus_epi32(x[2], x[3]));
}

/// Where packed_bytes leaves value k.
constexpr int packed_pos(int k) {
  return 16 * ((k % 16) / 4) + 4 * (k / 16) + k % 4;
}

/// vpermb indices from packed_bytes' order: to value order (byte k is value
/// k), or to the 8x8 transpose of an 8x8 tile (byte 8j + i is value 8i + j).
struct BytePerm {
  alignas(64) unsigned char idx[64];
};
constexpr BytePerm byte_perm(bool transpose) {
  BytePerm p{};
  for (int k = 0; k < 64; ++k) {
    const int value = transpose ? 8 * (k % 8) + k / 8 : k;
    p.idx[k] = static_cast<unsigned char>(packed_pos(value));
  }
  return p;
}
constexpr BytePerm kValueOrder = byte_perm(false);
constexpr BytePerm kTransposed = byte_perm(true);

/// Byte `g` of every value of v[0..3], permuted by `perm`.
inline __m512i bytes_in(const BytePerm& perm, const __m512i v[4], int g, bool wide) {
  return _mm512_maskz_permutexvar_epi8(~__mmask64{0}, _mm512_load_si512(perm.idx),
                                       packed_bytes(v, g, wide));
}

/// Lanes [0, n) of a 64-lane mask, for n in [0, 64].
constexpr u64 first_lanes(i64 n) { return n >= 64 ? ~u64{0} : (u64{1} << n) - 1; }

/// The shared epilogue on 16 lanes in registers, activation fixed at compile
/// time: shift, activation, clamp high then low. Adds 1 to `saturated` in
/// each lane clamped at qmax; zero lanes never count.
template <Activation A>
inline __m512i requantize16(__m512i v, __m128i sh, __m512i qv, __m512i& saturated) {
  const __m512i zero = _mm512_setzero_si512();
  v = _mm512_maskz_sra_epi32(kAll16, v, sh);
  if constexpr (A == Activation::kRelu) v = _mm512_maskz_max_epi32(kAll16, v, zero);
  saturated = _mm512_mask_sub_epi32(saturated, _mm512_cmpgt_epi32_mask(v, qv),
                                    saturated, _mm512_set1_epi32(-1));
  v = _mm512_maskz_min_epi32(kAll16, v, qv);
  return _mm512_maskz_max_epi32(kAll16, v, zero);
}

/// Sum of requantize16's per-lane clamp counts.
inline u64 lane_sum(__m512i counts) {
  alignas(64) i32 c[16];
  _mm512_store_si512(c, counts);
  u64 total = 0;
  for (const i32 x : c) total += static_cast<u64>(x);
  return total;
}

/// Stores plane b's line word, bit k = bit (b - 8 g) of byte k of `bytes`
/// (byte group g), for every plane b of group g.
inline void store_lines(const PlaneSink& s, i64 line, const __m512i bytes, int g) {
  const int b_end = std::min(s.out_bits, 8 * g + 8);
  for (int b = 8 * g; b < b_end; ++b) {
    const u64 word = _mm512_test_epi8_mask(
        bytes, _mm512_set1_epi8(static_cast<char>(1 << (b - 8 * g))));
    std::memcpy(s.planes[b] + line * s.line_stride, &word, sizeof word);
  }
}

/// flush_planes_panel's byte path for a row panel. Row i's 64 panel columns
/// sit in four vectors (tiles 2q and 2q + 1, row i), loaded zero-masked to
/// the valid lanes, so padding is 0 and never saturates. After the epilogue
/// each 8-plane group narrows to bytes once, and every plane's line word is
/// one vptestmb and one 64-bit store.
template <Activation A>
u64 panel_rows(const PlaneSink& s, const u32* tiles, i64 lanes,
               const EpilogueSpec& spec) {
  const u64 valid = first_lanes(lanes);
  const bool wide = s.out_bits > 8;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i qv = _mm512_set1_epi32(spec.qmax);
  const __m128i sh = _mm_cvtsi32_si128(std::min(spec.rshift, 31));
  const i64 vectors = (lanes + 15) / 16;  // the rest hold only padding
  __m512i saturated = zero;
  for (i64 i = 0; i < s.lines; ++i) {
    __m512i w[4] = {zero, zero, zero, zero};
    for (int q = 0; q < vectors; ++q) {
      const u32* row = tiles + 2 * q * kTileM * kTileN + i * kTileN;
      const auto k = static_cast<__mmask16>(valid >> (16 * q));
      // Lanes 8..15 read tile 2q + 1's row, 64 values past lane 0's.
      __m512i v = _mm512_maskz_loadu_epi32(k & 0xFF, row);
      v = _mm512_mask_loadu_epi32(v, k & 0xFF00, row + kTileM * kTileN - kTileN);
      w[q] = requantize16<A>(v, sh, qv, saturated);
    }
    for (int g = 0; 8 * g < s.out_bits; ++g) {
      store_lines(s, i, bytes_in(kValueOrder, w, g, wide), g);
    }
  }
  return lane_sum(saturated);
}

/// vpermt2q indices of one transpose round at distance d: for the vector
/// pair (a, b) = (x[t], x[t + d]), `lo` gathers a's lanes l with bit d clear
/// and b's lanes l - d, `hi` a's lanes l + d and b's lanes l with bit d set.
struct LaneSwap {
  alignas(64) i64 lo[8];
  alignas(64) i64 hi[8];
};
constexpr LaneSwap lane_swap(int d) {
  LaneSwap p{};
  for (int l = 0; l < 8; ++l) {
    p.lo[l] = (l & d) != 0 ? 8 + l - d : l;
    p.hi[l] = (l & d) != 0 ? 8 + l : l + d;
  }
  return p;
}
constexpr LaneSwap kLaneSwap[3] = {lane_swap(1), lane_swap(2), lane_swap(4)};

/// Transposes the 8x8 matrix of u64 lanes in x[0..7] (lane l of x[t] swaps
/// with lane t of x[l]): three rounds of 2x2 block swaps at distance 1, 2
/// and 4, two vpermt2q per pair of vectors.
inline void transpose_lanes(__m512i x[8]) {
  for (int r = 0; r < 3; ++r) {
    const int d = 1 << r;
    const __m512i lo = _mm512_load_si512(kLaneSwap[r].lo);
    const __m512i hi = _mm512_load_si512(kLaneSwap[r].hi);
    for (int t = 0; t < 8; ++t) {
      if ((t & d) != 0) continue;
      const __m512i a = x[t];
      x[t] = _mm512_maskz_permutex2var_epi64(0xFF, a, lo, x[t + d]);
      x[t + d] = _mm512_maskz_permutex2var_epi64(0xFF, a, hi, x[t + d]);
    }
  }
}

/// flush_planes_panel's byte path for a column band: tile t holds rows
/// 8t .. 8t + 7 of the s.lines valid columns. Each tile is loaded zero-masked
/// to its valid rows and columns, requantized in registers and narrowed to
/// bytes in transposed order, so 64-bit lane j holds column j's 8 rows of
/// the tile. An 8x8 transpose of those lanes across the band's tiles leaves
/// column j's 64 band rows in one vector, and every plane's line word is one
/// vptestmb and one 64-bit store. Byte groups past the first (more than 8
/// planes) run the epilogue again and count nothing the second time.
template <Activation A>
u64 panel_columns(const PlaneSink& s, const u32* tiles, i64 lanes,
                  const EpilogueSpec& spec) {
  const u64 valid_cols = 0x0101010101010101ULL * first_lanes(s.lines);
  const bool wide = s.out_bits > 8;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i qv = _mm512_set1_epi32(spec.qmax);
  const __m128i sh = _mm_cvtsi32_si128(std::min(spec.rshift, 31));
  __m512i saturated = zero;
  for (int g = 0; 8 * g < s.out_bits; ++g) {
    __m512i uncounted = zero;
    __m512i x[8];
    for (int t = 0; t < 8; ++t) {
      const i64 rows = std::min<i64>(lanes - 8 * t, kTileM);
      if (rows <= 0) {  // past the band's last tile
        x[t] = zero;
        continue;
      }
      const u64 valid = first_lanes(8 * rows) & valid_cols;
      __m512i w[4];
      for (int q = 0; q < 4; ++q) {
        const __m512i v = _mm512_maskz_loadu_epi32(
            static_cast<__mmask16>(valid >> (16 * q)), tiles + t * kTileM * kTileN + 16 * q);
        w[q] = requantize16<A>(v, sh, qv, g == 0 ? saturated : uncounted);
      }
      x[t] = bytes_in(kTransposed, w, g, wide);
    }
    transpose_lanes(x);
    for (i64 j = 0; j < s.lines; ++j) store_lines(s, j, x[j], g);
  }
  return lane_sum(saturated);
}

#endif  // QGTC_BYTE_DRAIN

/// One plane's 64-bit mask of an 8x8 tile: bit 8i+j is bit `b` of q[i*8+j].
inline u64 plane_mask(const i32* q, int b) {
#if defined(__AVX2__)
  // Move bit b into each lane's sign bit, then one movemask per row.
  const __m128i count = _mm_cvtsi32_si128(31 - b);
  u64 m = 0;
  for (int i = 0; i < kTileM; ++i) {
    const __m256i x = _mm256_sll_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 8 * i)), count);
    m |= static_cast<u64>(static_cast<u32>(
             _mm256_movemask_ps(_mm256_castsi256_ps(x))))
         << (8 * i);
  }
  return m;
#else
  u64 m = 0;
  for (int k = 0; k < kTileM * kTileN; ++k) {
    m |= static_cast<u64>((q[k] >> b) & 1) << k;
  }
  return m;
#endif
}

/// Transpose an 8x8 bit matrix held as bit 8i+j (three delta swaps).
constexpr u64 transpose8x8(u64 x) {
  u64 t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// ORs plane mask `m` (bit 8l + k = line l, lane k) into its sink lines.
inline void or_lines(const PlaneSink& s, int b, u64 m) {
  u32* plane = s.planes[b];
  for (i64 l = 0; l < s.lines; ++l) {
    plane[l * s.line_stride] |= (static_cast<u32>(m >> (8 * l)) & 0xFFu) << s.shift;
  }
}

}  // namespace

void pack_b(u64* out, const u32* const* cols, int planes, i64 col_stride,
            i64 tiles_n, i64 tiles_k) {
  for (i64 tn = 0; tn < tiles_n; ++tn) {
    for (i64 k = 0; k < tiles_k; ++k) {
      for (int bb = 0; bb < planes; ++bb) {
        const u32* col = cols[bb] + tn * kTileN * col_stride + k * kTileKWords;
        for (int j = 0; j < kTileN; ++j) {
          std::memcpy(out + j, col + j * col_stride, sizeof(u64));
          std::memcpy(out + kTileN + j, col + j * col_stride + 2, sizeof(u64));
        }
        out += kSliceWords;
      }
    }
  }
}

void scatter_planes(const PlaneSink& s, const i32* q) {
  // Lanes past `s.lanes` are cleared in every line's byte.
  const u64 lane_mask = 0x0101010101010101ULL * ((u64{1} << s.lanes) - 1);
  for (int b = 0; b < s.out_bits; ++b) {
    u64 m = plane_mask(q, b);
    if (s.transpose) m = transpose8x8(m);
    m &= lane_mask;
    if (m != 0) or_lines(s, b, m);
  }
}

u64 flush_planes_panel(const PlaneSink& s, const u32* tiles, i64 nb,
                       const EpilogueSpec& spec) {
  const i64 lanes = std::clamp<i64>(s.lanes, 0, nb * kTileN);
#if defined(QGTC_BYTE_DRAIN)
  switch (spec.act) {
    case Activation::kIdentity:
      return s.transpose ? panel_columns<Activation::kIdentity>(s, tiles, lanes, spec)
                         : panel_rows<Activation::kIdentity>(s, tiles, lanes, spec);
    case Activation::kRelu:
      return s.transpose ? panel_columns<Activation::kRelu>(s, tiles, lanes, spec)
                         : panel_rows<Activation::kRelu>(s, tiles, lanes, spec);
  }
  return 0;
#else
  // Tile blk's 8 lanes (the panel's columns 8 blk .. +7, or the band's rows)
  // sit in word (8 blk) / 32 at bit offset (8 blk) % 32 of every line.
  u64 saturated = 0;
  for (i64 blk = 0; blk * kTileN < lanes; ++blk) {
    u32* planes[kMaxPanelPlanes];
    for (int b = 0; b < s.out_bits; ++b) {
      planes[b] = s.planes[b] + blk * kTileN / kWordBits;
    }
    const PlaneSink tile{planes, s.line_stride,
                         static_cast<int>(blk * kTileN % kWordBits), s.out_bits,
                         s.lines, std::min<i64>(kTileN, lanes - blk * kTileN),
                         s.transpose};
    saturated += flush_planes(tile, tiles + blk * kTileM * kTileN, spec);
  }
  return saturated;
#endif
}

namespace {

// ------------------------------------------------------------------------
// Registry plumbing
// ------------------------------------------------------------------------

/// A panel composed from a kernel set's per-tile ops (load_a + mma, both
/// inlined): each A tile is decoded once and swept across the panel's
/// output-column tiles and B planes, into u64 lanes local to the call that
/// the set's reduce then narrows into the u32 tiles. Shifts past 63 are
/// clamped, which leaves the low 32 bits zero exactly as the uint32 wrap
/// requires. Live masks are ignored: a dead half is zero, so the full 128-bit
/// op gives the same sum.
template <typename Kernels>
void panel_by_tiles(u32* tiles, const PanelJob& job) {
  QGTC_CHECK(job.nb <= kPanelWidth, "a panel job covers at most 8 tiles");
  alignas(64) u64 acc[kPanelWidth * Kernels::kLanes];
  std::memset(acc, 0, static_cast<std::size_t>(job.nb * Kernels::kLanes) * sizeof(u64));
  AFragment frag;
  for (i64 t = 0; t < job.n_tiles; ++t) {
    const SparseTileRef* at = job.a_tiles + t * job.a_planes;
    for (int ab = 0; ab < job.a_planes; ++ab) {
      Kernels::load_a(frag, at[ab].a, job.a_stride);
      for (i64 blk = 0; blk < job.nb; ++blk) {
        const u64* b = job.b + (blk * job.b_tiles_k + at->k_tile) * job.b_planes *
                                   kSliceWords;
        for (int bb = 0; bb < job.b_planes; ++bb) {
          Kernels::mma(acc + blk * Kernels::kLanes, frag, b + bb * kSliceWords,
                       std::min(job.shift + ab + bb, 63));
        }
      }
    }
  }
  for (i64 blk = 0; blk < job.nb; ++blk) {
    Kernels::reduce(tiles + blk * kTileM * kTileN, acc + blk * Kernels::kLanes);
  }
}

template <typename Kernels>
class BackendImpl final : public SubstrateBackend {
 public:
  BackendImpl(BackendKind kind, const char* name) : kind_(kind), name_(name) {}

  [[nodiscard]] BackendKind kind() const override { return kind_; }
  [[nodiscard]] const char* name() const override { return name_; }

  void mma_panel(u32* tiles, const PanelJob& job) const override {
    if constexpr (requires { Kernels::mma_panel(tiles, job); }) {
      Kernels::mma_panel(tiles, job);
    } else {
      panel_by_tiles<Kernels>(tiles, job);
    }
  }

 private:
  BackendKind kind_;
  const char* name_;
};

/// True when the vector micro-kernels compiled in are usable on this CPU.
bool runtime_simd_ok() {
#if defined(QGTC_AVX512_PANEL)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq") &&
         __builtin_cpu_supports("avx512ifma");
#elif defined(__AVX2__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// kBlocked: the best kernel set compiled in and supported by this CPU, or
/// the scalar set when there is none.
const SubstrateBackend& blocked_backend() {
#if defined(QGTC_AVX512_PANEL)
  if (runtime_simd_ok()) {
    static const BackendImpl<Avx512Kernels> be{BackendKind::kBlocked,
                                               "blocked(avx512)"};
    return be;
  }
#elif defined(__AVX2__)
  if (runtime_simd_ok()) {
    static const BackendImpl<Avx2Kernels> be{BackendKind::kBlocked,
                                             "blocked(avx2)"};
    return be;
  }
#endif
  static const BackendImpl<ScalarKernels> be{BackendKind::kBlocked,
                                             "blocked(scalar)"};
  return be;
}

}  // namespace

const SubstrateBackend& backend(BackendKind k) {
  switch (k) {
    case BackendKind::kScalar: {
      static const BackendImpl<ScalarKernels> scalar{BackendKind::kScalar,
                                                     "scalar"};
      return scalar;
    }
    case BackendKind::kBlocked:
      return blocked_backend();
  }
  throw std::invalid_argument("unknown BackendKind");
}

const char* backend_name(BackendKind k) { return backend(k).name(); }

BackendKind parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "blocked") return BackendKind::kBlocked;
  throw std::invalid_argument("unknown backend '" + std::string(name) +
                              "' (expected scalar|blocked)");
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
  }
  return "?";
}

std::vector<BackendKind> all_backends() {
  return {BackendKind::kScalar, BackendKind::kBlocked};
}

bool simd_active() { return runtime_simd_ok(); }

BackendKind default_backend() {
  // Falls back (with a warning) instead of throwing: this runs from default
  // member initializers, where an unparsable env var must not terminate.
  static const BackendKind kind = [] {
    const std::string s = env_str("QGTC_BACKEND", "blocked");
    try {
      return parse_backend(s);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "QGTC_BACKEND ignored: %s\n", e.what());
      return BackendKind::kBlocked;
    }
  }();
  return kind;
}

}  // namespace qgtc::tcsim
