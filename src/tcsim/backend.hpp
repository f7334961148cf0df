// Substrate backend registry (see DESIGN.md, "Backend registry").
//
// The 1-bit BMM substrate is the single atomic primitive everything in QGTC
// composes from (paper §2.3, Eq. 7). This header separates the *op surface*
// the kernels program against from the *substrate* that executes the
// 8x8x128 tile contract, so the same kernel code can run on different
// micro-kernel implementations selected at runtime:
//
//   kScalar   the reference path: per-tile u64 AND + std::popcount,
//             exactly the semantics of tcsim::dot128. Tests compare every
//             other path against it.
//   kBlocked  the best micro-kernel compiled in AND supported by the running
//             CPU (AVX-512 VPOPCNTDQ + IFMA, else AVX2 nibble-LUT; the
//             scalar set when neither is available). This is the default
//             production backend.
//
// Both sweep panels of kPanelWidth output-column tiles (§4.4's cross-tile
// reuse, generalised to every MM in the stack).
//
// Kernels hand the backend one PanelJob per panel; the per-tile ops live
// inside backend.cpp, so no kernel pays a virtual call per tile.
//
// All backends produce bit-identical results: accumulation is exact integer
// popcount arithmetic in u64 lanes, and mma_panel writes each output tile
// already truncated to the hardware's uint32-wrap contract, as u32[8][8].
// The flushes below drain that one layout and are shared by every backend.
#pragma once

#include <cstring>
#include <string_view>
#include <vector>

#include "common/defs.hpp"

namespace qgtc::tcsim {

enum class BackendKind { kScalar = 0, kBlocked = 1 };

/// Output-column tiles per panel job: the §4.4 cross-tile blocking factor
/// every kernel sweep uses, on every backend. Also the row blocks per column
/// band that a kColMajorK output drains at once (one 64-bit line word).
inline constexpr i64 kPanelWidth = 8;

/// Elementwise activation the fused epilogue applies in the requantized
/// integer domain (after the arithmetic right-shift, before the clamp):
/// identity, or the paper's ReLU (§4.5) on hidden updates.
enum class Activation { kIdentity = 0, kRelu = 1 };

/// Epilogue parameters for the requantizing flush variants. Applied to each
/// accumulator value after the uint32-wrap truncation:
///   w = v >> rshift (arithmetic);  w = act(w);
///   if (qmax >= 0)  w = clamp(w, 0, qmax).
/// qmax < 0 leaves the activated value unclamped (int32 outputs such as
/// final-layer logits).
struct EpilogueSpec {
  Activation act = Activation::kIdentity;
  int rshift = 0;
  i32 qmax = -1;

  /// True when the epilogue is the identity (flush_epilogue degenerates to a
  /// plain truncating store).
  [[nodiscard]] constexpr bool is_raw() const {
    return act == Activation::kIdentity && rshift == 0 && qmax < 0;
  }
};

namespace detail {

/// The one per-activation definition, in the i32 domain.
template <Activation A>
constexpr i32 activate(i32 w) {
  if constexpr (A == Activation::kRelu) {
    return w < 0 ? 0 : w;
  } else {
    return w;
  }
}

/// Branch-free epilogue over n values with the activation fixed at compile
/// time, so GCC vectorizes it. Returns how many values were clamped at qmax.
template <Activation A>
inline u64 epilogue_run(i32* v, i64 n, int sh, i32 qmax) {
  if (qmax < 0) {
    for (i64 k = 0; k < n; ++k) v[k] = activate<A>(v[k] >> sh);
    return 0;
  }
  // Clamp high first, then low: the same function for qmax >= 0, but unlike
  // the nested select GCC 12 vectorizes it for every activation.
  u64 saturated = 0;
  for (i64 k = 0; k < n; ++k) {
    i32 w = activate<A>(v[k] >> sh);
    saturated += w > qmax ? 1 : 0;
    w = w > qmax ? qmax : w;
    v[k] = w < 0 ? 0 : w;
  }
  return saturated;
}

}  // namespace detail

/// THE shared epilogue semantics, applied to `n` values in place: switch on
/// the activation once, then one branch-free loop. The fused flush (tile
/// form below) and the unfused requantization pass (whole matrix) both run
/// it, so they are bit-identical by construction. Shift counts >= 31 leave
/// only the sign, exactly as in i64. ReLU commutes with the arithmetic
/// shift, so this matches the historical "activate, then shift, then clamp"
/// order exactly. Returns how many values were clamped at `spec.qmax` (0
/// when qmax < 0).
inline u64 apply_epilogue_span(i32* vals, i64 n, const EpilogueSpec& spec) {
  const int sh = spec.rshift < 31 ? spec.rshift : 31;
  switch (spec.act) {
    case Activation::kIdentity:
      return detail::epilogue_run<Activation::kIdentity>(vals, n, sh, spec.qmax);
    case Activation::kRelu:
      return detail::epilogue_run<Activation::kRelu>(vals, n, sh, spec.qmax);
  }
  return 0;
}

/// The tile form every flush runs: one 8x8 tile (row-major i32[64]).
inline u64 apply_epilogue_tile(i32* vals, const EpilogueSpec& spec) {
  return apply_epilogue_span(vals, kTileM * kTileN, spec);
}

/// One value (reference checks and tests).
[[nodiscard]] inline i32 apply_epilogue(i32 v, const EpilogueSpec& spec) {
  apply_epilogue_span(&v, 1, spec);
  return v;
}

/// One entry of a sparse A-tile schedule: the stored tile's first word (its
/// 8 rows sit `a_stride` u32 apart) plus the K-tile index that selects the
/// matching packed B slices. Both the tile-CSR layout (tiles
/// stored contiguously, stride kTileKWords) and the dense layout (tiles in
/// place, stride k_words) describe their surviving tiles this way, so
/// flag-based and structural zero-tile jumping execute one schedule format.
/// Bit h of `live` set means words 2h and 2h + 1 of the tile's rows may be
/// nonzero in the product: a clear bit promises that the 64-bit K half h
/// of the A tile (in every plane) or of the matching B slices is zero, so a
/// backend may skip it. The default of 3 is always safe.
struct SparseTileRef {
  const u32* a;
  i64 k_tile;
  int live = 3;
};

/// Bound on the bit-planes of one sweep operand: the B planes a sweep packs
/// and the output planes a drain writes.
inline constexpr int kMaxPanelPlanes = 32;

/// u64 words of one packed B slice: the 8 columns of one output-column tile
/// in one K tile of one plane, split into the two 64-bit K halves. Word
/// h * kTileN + j is column j's half h (its K bits 64h .. 64h + 63).
inline constexpr i64 kSliceWords = 2 * kTileN;

/// Packs `planes` B planes for panel jobs, once per tile sweep, so no job
/// re-reads B's strided columns. `cols[bb]` points at plane bb's first
/// column, and columns sit `col_stride` u32 apart. Slice (tn, k, bb) — the
/// columns of output-column tile tn in K tile k — lands at
/// out + ((tn * tiles_k + k) * planes + bb) * kSliceWords.
void pack_b(u64* out, const u32* const* cols, int planes, i64 col_stride,
            i64 tiles_n, i64 tiles_k);

/// One backend call's worth of work: a row block's surviving A tiles swept
/// across `nb` (at most kPanelWidth) consecutive output-column tiles and
/// every B bit-plane (the §4.4 cross-tile reduction). Entry (t, ab) of the A
/// schedule is `a_tiles[t * a_planes + ab]` (plane-minor; every plane of tile
/// t shares its k_tile and live mask, and backends read the first plane's).
/// B comes packed (pack_b) from the panel's first output-column tile on:
/// tile `blk` of plane `bb` in K tile k is the slice at
/// b + ((blk * b_tiles_k + k) * b_planes + bb) * kSliceWords. Each
/// (t, ab, bb) product is weighted << (shift + ab + bb); terms shifted by 32
/// or more vanish at the uint32 wrap.
struct PanelJob {
  const SparseTileRef* a_tiles = nullptr;  // n_tiles * a_planes entries
  i64 n_tiles = 0;
  int a_planes = 1;
  i64 a_stride = 0;  // u32 between the 8 rows of every A tile
  const u64* b = nullptr;
  int b_planes = 1;
  i64 b_tiles_k = 1;
  i64 nb = 1;
  int shift = 0;
};

/// Destination descriptor for flush_planes: where one 8x8 output tile's
/// requantized values land as packed bit planes. `planes[b]` points at the
/// word of plane `b` that holds the tile's first line; successive lines sit
/// `line_stride` u32 apart, and the tile's 8-lane bit group occupies bit
/// offset `shift` within the word (tile extents divide the 32-bit packing,
/// so a group never straddles words). With `transpose == false` a line is an
/// output row and a lane an output column (kRowMajorK planes); with
/// `transpose == true` the roles swap (kColMajorK). `lines`/`lanes` bound
/// the logically valid region (<= 8 each) so edge tiles skip padding.
/// flush_planes_panel reads the same fields for a whole panel or column band
/// (see there).
struct PlaneSink {
  u32* const* planes;
  i64 line_stride;
  int shift;
  int out_bits;
  i64 lines;
  i64 lanes;
  bool transpose;
};

/// Scatter a requantized 8x8 tile (`q`, row-major i32[64], values already in
/// [0, 2^out_bits)) into packed bit planes — one word OR per (line, plane).
/// Per plane it builds one 64-bit mask (bit 8i+j = that bit of q[i*8+j]),
/// transposes it for transpose sinks and masks it to `lines` x `lanes`
/// (one AVX2 movemask per row where compiled in, else a scalar loop).
void scatter_planes(const PlaneSink& s, const i32* q);

/// out[8x8, rows `out_stride` i32 apart] += tile (a row-major u32[64] that
/// mma_panel wrote), wrapping mod 2^32.
inline void flush(i32* out, i64 out_stride, const u32* tile) {
  for (int i = 0; i < kTileM; ++i) {
    i32* row = out + i * out_stride;
    for (int j = 0; j < kTileN; ++j) {
      row[j] = static_cast<i32>(static_cast<u32>(row[j]) + tile[i * kTileN + j]);
    }
  }
}

/// Epilogue flush (the CUTLASS-style fused epilogue — see DESIGN.md):
/// out[8x8] = apply_epilogue(tile). Assigns (does not add). Returns how many
/// values were clamped at `spec.qmax`.
inline u64 flush_epilogue(i32* out, i64 out_stride, const u32* tile,
                          const EpilogueSpec& spec) {
  alignas(64) i32 vals[kTileM * kTileN];
  std::memcpy(vals, tile, sizeof vals);
  const u64 saturated = spec.is_raw() ? 0 : apply_epilogue_tile(vals, spec);
  for (int i = 0; i < kTileM; ++i) {
    std::memcpy(out + i * out_stride, vals + i * kTileN, kTileN * sizeof(i32));
  }
  return saturated;
}

/// Plane-writer flush: requantize the tile with `spec` and scatter the
/// resulting bits straight into packed output planes (`sink`) — the §4.5
/// re-pack executed inside the flush, so no int32 intermediate is ever
/// materialised. `spec.qmax` must be >= 0 (values must fit the planes).
/// Returns how many values inside the sink's `lines` x `lanes` region were
/// clamped at `spec.qmax`.
inline u64 flush_planes(const PlaneSink& sink, const u32* tile,
                        const EpilogueSpec& spec) {
  alignas(64) i32 vals[kTileM * kTileN];
  std::memcpy(vals, tile, sizeof vals);
  if (sink.lines < kTileM || sink.lanes < kTileN) {
    // Edge tile: zero the padding so it never counts as saturated (the
    // scatter drops it either way; act(0) = 0 for every activation).
    const i64 rows = sink.transpose ? sink.lanes : sink.lines;
    const i64 cols = sink.transpose ? sink.lines : sink.lanes;
    for (i64 k = 0; k < kTileM * kTileN; ++k) {
      if (k / kTileN >= rows || k % kTileN >= cols) vals[k] = 0;
    }
  }
  const u64 saturated = apply_epilogue_tile(vals, spec);
  scatter_planes(sink, vals);
  return saturated;
}

/// Panel drain: requantize the `nb` finished tiles of one panel (tile `blk`
/// at tiles[blk * 64 .. +64), as mma_panel wrote them) and write its lines
/// into packed planes. `sink.planes[b]` points at the word of plane `b` that
/// holds the panel's first line and first lane, which starts a 64-bit line
/// word (`sink.shift` is 0: the panel's first lane is a multiple of 64, and
/// lines are padded to 128 bits).
///  * Row panel (`sink.transpose` false, kRowMajorK outputs): tile blk holds
///    columns 8 blk .. +7 of 8 rows; `sink.lines` counts the valid rows and
///    `sink.lanes` the valid columns.
///  * Column band (`sink.transpose` true, kColMajorK outputs): tile blk holds
///    rows 8 blk .. +7 of 8 columns; `sink.lines` counts the valid columns
///    and `sink.lanes` the valid rows.
/// `lines` is at most 8 and `lanes` at most 8 * nb; nothing past them is
/// read. With AVX-512 BW + VBMI each valid line's 64-bit line word is
/// *stored*, once per plane: the planes must be zero there and no other
/// thread may write those lines. Other builds run flush_planes per tile.
/// Either way padding lines and lanes stay zero. `spec.qmax` must be >= 0.
/// Returns how many valid values were clamped at `spec.qmax`.
u64 flush_planes_panel(const PlaneSink& sink, const u32* tiles, i64 nb,
                       const EpilogueSpec& spec);

/// A substrate micro-kernel implementation. Stateless and shared across
/// threads: all mutable state lives in caller-provided scratch (the
/// ExecutionContext workspace arena), so one registry instance serves every
/// thread of every context.
class SubstrateBackend {
 public:
  virtual ~SubstrateBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// One panel of the sparse schedule: writes output-column tile `blk` of
  /// the job at tiles[blk * 64 .. +64), row-major, as the sum over
  /// (t, ab, bb) of (A(t, ab) x B(bb, tile t's K slice)) << (shift + ab + bb),
  /// mod 2^32. Assigns every one of the nb tiles (zeros when n_tiles == 0)
  /// and nothing past them. The whole K x A-plane x B-plane reduction of the
  /// panel runs inside the backend, so the kernels make one call per panel.
  virtual void mma_panel(u32* tiles, const PanelJob& job) const = 0;
};

/// Registry lookup. Instances are process-lifetime singletons; kBlocked
/// resolves its micro-kernel once at first use from compile-time
/// availability + runtime CPU feature detection.
[[nodiscard]] const SubstrateBackend& backend(BackendKind k);

/// Display name ("scalar", "blocked(avx512)", ...).
[[nodiscard]] const char* backend_name(BackendKind k);

/// Parse a backend name; throws std::invalid_argument on unknown names.
[[nodiscard]] BackendKind parse_backend(std::string_view name);

/// Display name ("identity", "relu").
[[nodiscard]] const char* activation_name(Activation a);

/// All registered kinds, in registry order.
[[nodiscard]] std::vector<BackendKind> all_backends();

/// True when kBlocked resolved to vector micro-kernels on this CPU (false =
/// it runs the scalar set).
[[nodiscard]] bool simd_active();

/// Process default: QGTC_BACKEND env var ("scalar" | "blocked") or
/// kBlocked. Read once.
[[nodiscard]] BackendKind default_backend();

}  // namespace qgtc::tcsim
