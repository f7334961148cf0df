// 1-bit BMM (bit-matrix multiplication) on the tensor-core substrate.
// This is the "atomic" kernel every any-bitwidth operation is composed from
// (paper §3.1, Eq. 7): C[i,j] = popcnt(rowA_i & colB_j), tiled 8x8x128.
#pragma once

#include "bittensor/bit_matrix.hpp"
#include "bittensor/tile_sparse.hpp"
#include "tcsim/exec_context.hpp"
#include "tcsim/wmma.hpp"

namespace qgtc {

struct BmmOptions {
  /// Skip all-zero 8x128 A-tiles (paper §4.3) with an inline OR+ballot test
  /// per tile. A tile-CSR A operand jumps structurally and ignores this.
  bool zero_tile_jump = false;
  /// Skip the worst-case int32 bound check. High-bit settings (s or t > 8,
  /// as in the paper's 16/32-bit runs) can exceed the bound; accumulation is
  /// performed in unsigned arithmetic so overflow wraps (defined behaviour),
  /// exactly like the hardware's uint32 accumulators.
  bool allow_overflow = false;
  /// Execution context supplying the substrate backend, workspace arena and
  /// counter sink. Null routes to ExecutionContext::default_context().
  const tcsim::ExecutionContext* ctx = nullptr;
};

/// Resolves an options block's context (null -> process default).
[[nodiscard]] inline const tcsim::ExecutionContext& resolve_ctx(
    const BmmOptions& opt) {
  return opt.ctx != nullptr ? *opt.ctx
                            : tcsim::ExecutionContext::default_context();
}

/// C (+)= (A x B) << shift.
///
/// A: kRowMajorK, logical M x K. B: kColMajorK, logical K x N, same padded K.
/// C: row-major int32, shape pad8(M) x B.padded_cols() — callers slice the
/// logical region. `shift` implements the bit-position weighting of the
/// composition scheme (Algorithm 1 line 17).
void bmm_accumulate(const BitMatrix& a, const BitMatrix& b, MatrixI32& c,
                    int shift = 0, const BmmOptions& opt = {});

/// Convenience wrapper: allocates C (padded), runs bmm_accumulate once, and
/// returns the logical M x N slice.
MatrixI32 bmm(const BitMatrix& a, const BitMatrix& b,
              const BmmOptions& opt = {});

/// Structurally sparse A: C (+)= (A x B) << shift over the stored tiles
/// only. Jumping is free — no dense scan, no per-tile flag test; the tiles
/// the tile-CSR never stored count as `tiles_jumped`, so the substrate
/// accounting matches the dense path *with zero-tile jumping enabled*
/// exactly. `opt.zero_tile_jump` is ignored — the layout *is* the jump map;
/// a tile-CSR that stores every tile is the no-jump layout.
void bmm_accumulate(const TileSparseBitMatrix& a, const BitMatrix& b,
                    MatrixI32& c, int shift = 0, const BmmOptions& opt = {});

/// Sparse-A convenience wrapper mirroring bmm().
MatrixI32 bmm(const TileSparseBitMatrix& a, const BitMatrix& b,
              const BmmOptions& opt = {});

/// Allocates the padded accumulator for a given A/B pair.
MatrixI32 make_padded_accumulator(const BitMatrix& a, const BitMatrix& b);

/// Copies the logical M x N region out of a padded accumulator.
MatrixI32 slice_logical(const MatrixI32& padded, i64 m, i64 n);

}  // namespace qgtc
