// google-benchmark microbenchmarks for the kernel stack: 1-bit BMM,
// any-bitwidth composition, fused epilogues, packing, and the baseline GEMMs.
// Complements the table-style harness with statistically robust per-kernel
// numbers (run with --benchmark_filter=... for a subset).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "baselines/dgl_fp32.hpp"
#include "baselines/int8_gemm.hpp"
#include "bittensor/stacked.hpp"
#include "common/rng.hpp"
#include "graph/batching.hpp"
#include "graph/generator.hpp"
#include "kernels/anybit_mm.hpp"
#include "tcsim/backend.hpp"

namespace {

using namespace qgtc;

MatrixI32 random_codes(u64 seed, i64 rows, i64 cols, int bits) {
  Rng rng(seed);
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

void BM_Bmm1Bit(benchmark::State& state) {
  const i64 n = state.range(0), d = state.range(1);
  const MatrixI32 a = random_codes(1, n, n, 1);
  const MatrixI32 b = random_codes(2, n, d, 1);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  MatrixI32 c = make_padded_accumulator(pa, pb);
  for (auto _ : state) {
    c.fill(0);
    bmm_accumulate(pa, pb, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["TFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(d) / 1e12,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Bmm1Bit)->Args({1024, 64})->Args({2048, 64})->Args({4096, 128});

/// One SubstrateBackend::mma_panel call, the unit every kernel sweep issues
/// per panel — the popcount half of a bit-MAC peak probe. Arg 0 indexes
/// tcsim::all_backends(); arg 1 is the shape:
///   0 = GIN update, K = 128 (8 x 8 planes, one K tile, 8 output-column tiles);
///   1 = GCN aggregate (1 x 4 planes, 8 K tiles, 2 output-column tiles);
///   2, 3 = GIN update with K <= 64 (8 x 8 planes, one K tile whose B words
///          past bit 64 are zero, its ref live = 1), 1 and 8 output-column
///          tiles — the shape the end-to-end GIN and GCN updates run;
///   4 = GCN aggregate whose tiles mix dead halves as the artist batches'
///       tile-CSRs do (about 37% low half dead, 37% high half dead, 26%
///       full): of every 8 tiles 3 are live = 1, 3 live = 2 and 2 live = 3,
///       each dead half zero in A.
/// B is packed (tcsim::pack_b) before the timed loop, as a sweep packs it
/// once for all its row blocks. Reports seconds per padded 8x8x128 bmma op
/// and 1-bit MAC/s (8192 per bmma op, padding and dead halves included).
void BM_MmaPanel(benchmark::State& state) {
  const auto& be = tcsim::backend(
      tcsim::all_backends()[static_cast<std::size_t>(state.range(0))]);
  const int shape = static_cast<int>(state.range(1));
  const bool gin = shape == 0 || shape == 2 || shape == 3;
  const bool half_k = shape == 2 || shape == 3;
  const int sa = gin ? 8 : 1;
  const int sb = gin ? 8 : 4;
  const i64 k_tiles = gin ? 1 : 8;
  const i64 nb = shape == 2 ? 1 : (gin ? 8 : 2);
  const i64 b_stride = k_tiles * kTileKWords;
  constexpr int kArtistLive[8] = {1, 2, 3, 1, 2, 1, 2, 3};

  Rng rng(13);
  std::vector<u32> a(static_cast<std::size_t>(k_tiles * sa * kTileM * kTileKWords));
  std::vector<u32> b(static_cast<std::size_t>(sb * nb * kTileN * b_stride));
  for (auto& w : a) w = static_cast<u32>(rng.next_u64());
  for (std::size_t w = 0; w < b.size(); ++w) {
    // Half-K B columns keep only their first two words (K <= 64).
    const bool pad = half_k && w % kTileKWords >= 2;
    b[w] = pad ? 0u : static_cast<u32>(rng.next_u64());
  }
  std::vector<tcsim::SparseTileRef> refs;
  for (i64 t = 0; t < k_tiles; ++t) {
    const int live = shape == 4 ? kArtistLive[t % 8] : half_k ? 1 : 3;
    for (int ab = 0; ab < sa; ++ab) {
      u32* tile = a.data() + (t * sa + ab) * kTileM * kTileKWords;
      for (std::size_t w = 0; w < kTileM * kTileKWords; ++w) {
        if (shape == 4 && ((live >> (w % kTileKWords / 2)) & 1) == 0) tile[w] = 0;
      }
      refs.push_back({tile, t, live});
    }
  }
  std::vector<const u32*> cols;
  for (int bb = 0; bb < sb; ++bb) cols.push_back(b.data() + bb * nb * kTileN * b_stride);
  std::vector<u64> packed(static_cast<std::size_t>(nb * k_tiles * sb * tcsim::kSliceWords));
  tcsim::pack_b(packed.data(), cols.data(), sb, b_stride, nb, k_tiles);
  tcsim::PanelJob job;
  job.a_tiles = refs.data();
  job.n_tiles = k_tiles;
  job.a_planes = sa;
  job.a_stride = kTileKWords;
  job.b = packed.data();
  job.b_planes = sb;
  job.b_tiles_k = k_tiles;
  job.nb = nb;

  std::vector<u32> tiles(static_cast<std::size_t>(nb * kTileM * kTileN));
  for (auto _ : state) {
    be.mma_panel(tiles.data(), job);
    benchmark::DoNotOptimize(tiles.data());
    benchmark::ClobberMemory();
  }
  const double ops = static_cast<double>(k_tiles * sa * sb * nb);
  state.counters["s_per_bmma"] = benchmark::Counter(
      ops, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["bitMAC_per_s"] = benchmark::Counter(
      ops * 8192.0, benchmark::Counter::kIsIterationInvariantRate);
  static const char* const kShapes[] = {" gin_update", " gcn_aggregate",
                                        " gin_update_k64_nb1",
                                        " gin_update_k64_nb8",
                                        " gcn_aggregate_artist_halves"};
  state.SetLabel(std::string(be.name()) + kShapes[shape]);
}
BENCHMARK(BM_MmaPanel)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       0, static_cast<int>(tcsim::all_backends().size()) - 1, 1),
                   {0, 1, 2, 3, 4}});

/// Random wrapped u32 output tiles, the drain benches' input: `n` tiles of
/// 64 values spread over [-2^15, 2^15) as i32, so every epilogue both
/// clamps and passes values.
std::vector<u32> random_tiles(u64 seed, std::size_t n) {
  Rng rng(seed);
  std::vector<u32> t(n * kTileM * kTileN);
  for (auto& w : t) {
    w = static_cast<u32>(static_cast<i32>(rng.next_below(1u << 16)) - (1 << 15));
  }
  return t;
}

constexpr std::size_t kDrainTiles = 256;

/// tcsim::apply_epilogue_tile on one 8x8 tile: the requantize every fused
/// flush runs. Arg 0 is the Activation; arg 1 the qmax (-1 = no clamp, 15 =
/// a 4-bit output). Each iteration copies a fresh tile in first, so the
/// copy (a few ns) is part of the time. Reports ns per tile.
void BM_EpilogueTile(benchmark::State& state) {
  const tcsim::EpilogueSpec spec{static_cast<tcsim::Activation>(state.range(0)), 3,
                                 static_cast<i32>(state.range(1))};
  const std::vector<u32> src = random_tiles(17, kDrainTiles);
  alignas(64) i32 vals[kTileM * kTileN];
  std::size_t t = 0;
  for (auto _ : state) {
    std::memcpy(vals, src.data() + t * kTileM * kTileN, sizeof vals);
    benchmark::DoNotOptimize(tcsim::apply_epilogue_tile(vals, spec));
    benchmark::ClobberMemory();
    t = (t + 1) % kDrainTiles;
  }
  state.SetLabel(std::string(tcsim::activation_name(spec.act)) +
                 (spec.qmax < 0 ? " no clamp" : " qmax " + std::to_string(spec.qmax)));
}
BENCHMARK(BM_EpilogueTile)->ArgsProduct({{0, 1}, {-1, 15}});

/// tcsim::flush_planes on one 8x8 tile: identity with shift 3, clamp to 4
/// bits and scatter into 4 kRowMajorK planes — the per-tile drain of every
/// GCN aggregation stage. Reports ns per tile.
void BM_FlushPlanes(benchmark::State& state) {
  constexpr int kBits = 4;
  const tcsim::EpilogueSpec spec{tcsim::Activation::kIdentity, 3, (1 << kBits) - 1};
  const std::vector<u32> src = random_tiles(19, kDrainTiles);
  std::vector<u32> words(kBits * kTileM, 0);
  u32* planes[kBits];
  for (int b = 0; b < kBits; ++b) planes[b] = words.data() + b * kTileM;
  const tcsim::PlaneSink sink{planes, 1, 8, kBits, kTileM, kTileN, false};
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcsim::flush_planes(sink, src.data() + t * kTileM * kTileN, spec));
    benchmark::ClobberMemory();
    t = (t + 1) % kDrainTiles;
  }
}
BENCHMARK(BM_FlushPlanes);

/// tcsim::flush_planes_panel on one 8-tile panel: the same 4-bit identity
/// drain as BM_FlushPlanes, but a whole kRowMajorK panel per call into
/// planes with a real line stride (k_words = 4, as for 100 columns) — the
/// drain every GCN aggregation stage runs per mma_panel call. Reports
/// seconds per 8x8 tile.
void BM_FlushPanel(benchmark::State& state) {
  constexpr int kBits = 4;
  constexpr i64 kLineStride = 4;
  const i64 nb = tcsim::kPanelWidth;
  const tcsim::EpilogueSpec spec{tcsim::Activation::kIdentity, 3, (1 << kBits) - 1};
  const std::vector<u32> src = random_tiles(19, kDrainTiles);
  std::vector<u32> words(kBits * kTileM * kLineStride, 0);
  u32* planes[kBits];
  for (int b = 0; b < kBits; ++b) planes[b] = words.data() + b * kTileM * kLineStride;
  const tcsim::PlaneSink sink{planes, kLineStride, 0, kBits, kTileM, nb * kTileN, false};
  const std::size_t panels = kDrainTiles / static_cast<std::size_t>(nb);
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcsim::flush_planes_panel(
        sink, src.data() + p * static_cast<std::size_t>(nb * kTileM * kTileN), nb, spec));
    benchmark::ClobberMemory();
    p = (p + 1) % panels;
  }
  state.counters["s_per_tile"] = benchmark::Counter(
      static_cast<double>(nb),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlushPanel);

/// tcsim::flush_planes_panel on one 8-tile column band: the same 4-bit
/// identity drain as BM_FlushPanel, but a kColMajorK band (8 row blocks of
/// one output-column tile, 8 valid columns) into column lines of 128 rows
/// (k_words = 4) — the drain every GIN update stage runs per 8 row blocks.
/// Reports seconds per 8x8 tile.
void BM_FlushColumns(benchmark::State& state) {
  constexpr int kBits = 4;
  constexpr i64 kLineStride = 4;
  const i64 nb = tcsim::kPanelWidth;
  const tcsim::EpilogueSpec spec{tcsim::Activation::kIdentity, 3, (1 << kBits) - 1};
  const std::vector<u32> src = random_tiles(19, kDrainTiles);
  std::vector<u32> words(kBits * kTileN * kLineStride, 0);
  u32* planes[kBits];
  for (int b = 0; b < kBits; ++b) planes[b] = words.data() + b * kTileN * kLineStride;
  const tcsim::PlaneSink sink{planes, kLineStride, 0, kBits, kTileN, nb * kTileM, true};
  const std::size_t bands = kDrainTiles / static_cast<std::size_t>(nb);
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcsim::flush_planes_panel(
        sink, src.data() + p * static_cast<std::size_t>(nb * kTileM * kTileN), nb, spec));
    benchmark::ClobberMemory();
    p = (p + 1) % bands;
  }
  state.counters["s_per_tile"] = benchmark::Counter(
      static_cast<double>(nb),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlushColumns);

/// One core's fp32 FMA peak — the other half of the peak probe: independent
/// FMA chains at the widest vector width compiled in (AVX-512, AVX2+FMA or
/// scalar std::fma). Reports fp32 MAC/s (one MAC per FMA lane).
void BM_Fp32FmaPeak(benchmark::State& state) {
  constexpr int kChains = 12;  // > FMA latency x ports, so the units stay busy
  constexpr int kSteps = 1024;
#if defined(__AVX512F__)
  using Vec = __m512;
  const auto splat = [](float x) { return _mm512_set1_ps(x); };
  const auto fma = [](Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); };
#elif defined(__AVX2__) && defined(__FMA__)
  using Vec = __m256;
  const auto splat = [](float x) { return _mm256_set1_ps(x); };
  const auto fma = [](Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); };
#else
  using Vec = float;
  const auto splat = [](float x) { return x; };
  const auto fma = [](Vec a, Vec b, Vec c) { return std::fma(a, b, c); };
#endif
  constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(float));
  Vec acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = splat(static_cast<float>(c));
  const Vec mul = splat(0.999f), add = splat(1e-3f);
  for (auto _ : state) {
    for (int s = 0; s < kSteps; ++s) {
      for (int c = 0; c < kChains; ++c) acc[c] = fma(acc[c], mul, add);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["fp32MAC_per_s"] = benchmark::Counter(
      static_cast<double>(kSteps) * kChains * kLanes,
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(std::to_string(kLanes) + " fp32 lanes");
}
BENCHMARK(BM_Fp32FmaPeak);

void BM_AnyBitComposed(benchmark::State& state) {
  const i64 n = 1024, d = 64;
  const int bits = static_cast<int>(state.range(0));
  const MatrixI32 a = random_codes(3, n, n, 1);
  const MatrixI32 x = random_codes(4, n, d, bits);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, bits, BitLayout::kColMajorK);
  for (auto _ : state) {
    auto out = aggregate_1bit(pa, px, ReuseMode::kCrossTile);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["bit_planes"] = bits;
}
BENCHMARK(BM_AnyBitComposed)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ZeroTileJump(benchmark::State& state) {
  // Block-diagonal adjacency: ~1/8 tiles non-zero; jumping on/off.
  const i64 n = 4096, d = 64;
  const bool jump = state.range(0) != 0;
  MatrixI32 a(n, n, 0);
  Rng rng(5);
  const i64 block = n / 8;
  for (i64 bidx = 0; bidx < 8; ++bidx) {
    for (i64 i = bidx * block; i < (bidx + 1) * block; ++i) {
      for (int e = 0; e < 16; ++e) {
        a(i, bidx * block + static_cast<i64>(rng.next_below(static_cast<u64>(block)))) = 1;
      }
    }
  }
  const MatrixI32 x = random_codes(6, n, d, 4);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 4, BitLayout::kColMajorK);
  BmmOptions opt;
  opt.zero_tile_jump = jump;
  for (auto _ : state) {
    auto out = aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ZeroTileJump)->Arg(0)->Arg(1);

void BM_FusedVsUnfusedBitOutput(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  const i64 n = 1024, d = 64;
  const MatrixI32 a = random_codes(7, n, n, 1);
  const MatrixI32 x = random_codes(8, n, d, 4);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, 4, BitLayout::kColMajorK);
  FusedEpilogue epi;
  epi.rshift = 8;
  for (auto _ : state) {
    if (fused) {
      auto out = aggregate_fused_bit(pa, px, 4, epi);
      benchmark::DoNotOptimize(&out);
    } else {
      auto raw = aggregate_1bit(pa, px, ReuseMode::kCrossTile);
      for (i64 i = 0; i < raw.size(); ++i) {
        raw.data()[i] = std::min(raw.data()[i] >> 8, 15);
      }
      auto out = StackedBitTensor::decompose(raw, 4, BitLayout::kRowMajorK);
      benchmark::DoNotOptimize(&out);
    }
  }
}
BENCHMARK(BM_FusedVsUnfusedBitOutput)->Arg(1)->Arg(0);

void BM_Int8Baseline(benchmark::State& state) {
  const i64 n = state.range(0), d = 64;
  const MatrixI32 a = random_codes(9, n, n, 1);
  const MatrixI32 b = random_codes(10, n, d, 7);
  const auto a8 = baselines::to_int8(a);
  const auto b8 = baselines::to_int8(b);
  for (auto _ : state) {
    auto c = baselines::gemm_int8(a8, b8);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Int8Baseline)->Arg(1024)->Arg(2048);

void BM_Fp32Spmm(benchmark::State& state) {
  // DGL-path SpMM on an SBM batch-like graph.
  const i64 n = 8192;
  Rng rng(11);
  std::vector<std::pair<i32, i32>> edges;
  for (i64 e = 0; e < n * 8; ++e) {
    edges.emplace_back(static_cast<i32>(rng.next_below(static_cast<u64>(n))),
                       static_cast<i32>(rng.next_below(static_cast<u64>(n))));
  }
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  MatrixF x(n, 64);
  for (i64 i = 0; i < x.size(); ++i) x.data()[i] = rng.next_float();
  for (auto _ : state) {
    auto y = baselines::spmm_csr(g, x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fp32Spmm);

void BM_BitDecompose(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const MatrixI32 x = random_codes(12, 4096, 128, bits);
  for (auto _ : state) {
    auto planes = StackedBitTensor::decompose(x, bits, BitLayout::kColMajorK);
    benchmark::DoNotOptimize(&planes);
  }
}
BENCHMARK(BM_BitDecompose)->Arg(2)->Arg(8);

/// The artist stand-in cut as `stream_ooc` cuts it (1500 partitions, 16
/// per batch: 93 batches), with its partition-local lists. Built once, on
/// first use, outside every timed loop.
struct ArtistBatches {
  Dataset ds;
  std::vector<SubgraphBatch> batches;
  PartitionAdjacency lists;
};
const ArtistBatches& artist_batches() {
  static const ArtistBatches a = [] {
    ArtistBatches r;
    r.ds = generate_dataset(table1_spec("artist"));
    r.batches = make_batches(partition_graph(r.ds.graph, 1500), 16);
    r.lists = build_partition_adjacency(r.ds.graph, r.batches);
    return r;
  }();
  return a;
}

/// One streaming epoch's tile-CSR builds: every artist batch, assembled by
/// walking the CSR (`walker`) or from the partition-local lists
/// (`partition`).
void BM_BatchTiles(benchmark::State& state, bool from_lists) {
  const ArtistBatches& a = artist_batches();
  for (auto _ : state) {
    i64 nnz = 0;
    for (const SubgraphBatch& b : a.batches) {
      nnz += (from_lists ? build_batch_adjacency_tiles(a.lists, b)
                         : build_batch_adjacency_tiles(a.ds.graph, b))
                 .nnz_tiles();
    }
    benchmark::DoNotOptimize(nnz);
  }
  state.counters["batches"] = static_cast<double>(a.batches.size());
}
BENCHMARK_CAPTURE(BM_BatchTiles, walker, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BatchTiles, partition, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
