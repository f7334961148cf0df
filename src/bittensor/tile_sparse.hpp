// Tile-sparse 1-bit matrices: the structural counterpart of zero-tile
// jumping (paper §4.1/§4.3, Figure 8). Batched subgraph adjacencies are
// overwhelmingly all-zero 8x128 tiles, so instead of materialising a dense
// BitMatrix and scanning it into a flag array, this layout stores *only* the
// nonzero tiles in a tile-CSR:
//
//   row_ptr  (tiles_m + 1)      offsets into col_idx / payload, per row tile
//   col_idx  (nnz_tiles)        K-tile column index of each stored tile
//   payload  (nnz_tiles x 32)   the tile's 8 rows x 4 words, row-major
//
// A stored tile's rows are contiguous with stride kTileKWords, so every
// SubstrateBackend consumes it through the same panel jobs as a dense tile
// (a SparseTileRef with a_stride kTileKWords). Jumping is
// free: kernels iterate stored tiles and never test a flag, and the transfer
// path ships payload + indices instead of the dense bit plane.
//
// The layout is A-side only (kRowMajorK semantics): it feeds the left
// operand of aggregation, which is the one operand the batching structure
// makes sparse. Weight and feature operands stay dense BitMatrix planes.
#pragma once

#include <vector>

#include "bittensor/bit_matrix.hpp"

namespace qgtc {

class TileSparseBitMatrix {
 public:
  /// u32 words per stored 8x128 tile (8 rows x 4 words).
  static constexpr i64 kTileWords = kTileM * kTileKWords;

  TileSparseBitMatrix() = default;

  /// Empty matrix of logical shape rows x cols (PAD8 rows, PAD128 cols —
  /// the §4.2 A-side tile padding). Tiles are added via append_tile().
  TileSparseBitMatrix(i64 rows, i64 cols);

  /// Converts a dense kRowMajorK matrix, storing only its nonzero tiles
  /// (the §4.3 OR test applied once at build).
  static TileSparseBitMatrix from_bit_matrix(const BitMatrix& dense);

  /// Densifies back to a kRowMajorK BitMatrix (tests / fallback paths).
  [[nodiscard]] BitMatrix to_bit_matrix() const;

  [[nodiscard]] i64 rows() const { return rows_; }
  [[nodiscard]] i64 cols() const { return cols_; }
  [[nodiscard]] i64 padded_rows() const { return padded_rows_; }
  [[nodiscard]] i64 padded_cols() const { return padded_cols_; }
  [[nodiscard]] i64 tiles_m() const { return tiles_m_; }
  [[nodiscard]] i64 tiles_k() const { return tiles_k_; }

  [[nodiscard]] i64 nnz_tiles() const { return static_cast<i64>(col_idx_.size()); }
  [[nodiscard]] i64 total_tiles() const { return tiles_m_ * tiles_k_; }
  /// Fraction of tiles actually stored (Figure 8's metric, structurally).
  [[nodiscard]] double nonzero_ratio() const {
    return total_tiles() == 0
               ? 0.0
               : static_cast<double>(nnz_tiles()) /
                     static_cast<double>(total_tiles());
  }

  /// Stored-tile range of row tile tm: handles in [row_begin, row_end).
  [[nodiscard]] i64 row_begin(i64 tm) const {
    return static_cast<i64>(row_ptr_[static_cast<std::size_t>(tm)]);
  }
  [[nodiscard]] i64 row_end(i64 tm) const {
    return static_cast<i64>(row_ptr_[static_cast<std::size_t>(tm) + 1]);
  }
  /// Stored tiles in row tile tm — the single source of truth for the
  /// per-row schedule length (jumped tiles are tiles_k() - row_nnz(tm)).
  [[nodiscard]] i64 row_nnz(i64 tm) const { return row_end(tm) - row_begin(tm); }
  /// K-tile column of stored tile `t` (col_idx ascending within each row).
  [[nodiscard]] i64 tile_col(i64 t) const {
    return static_cast<i64>(col_idx_[static_cast<std::size_t>(t)]);
  }
  /// First payload word of stored tile `t` (8 rows, kTileKWords apart).
  [[nodiscard]] const u32* tile_words(i64 t) const {
    return payload_.data() + t * kTileWords;
  }
  [[nodiscard]] u32* tile_words(i64 t) { return payload_.data() + t * kTileWords; }

  /// Bit test through the sparse structure (tests / debugging; O(log nnz_row)).
  [[nodiscard]] bool get(i64 r, i64 c) const;

  // Transfer accounting + staging views (§4.6). Indices ship as u32.
  [[nodiscard]] i64 payload_bytes() const {
    return static_cast<i64>(payload_.size() * sizeof(u32));
  }
  [[nodiscard]] i64 index_bytes() const {
    return static_cast<i64>((col_idx_.size() + row_ptr_.size()) * sizeof(u32));
  }
  /// Total bytes the packed-transfer path ships for this operand.
  [[nodiscard]] i64 bytes() const { return payload_bytes() + index_bytes(); }

  [[nodiscard]] const u32* payload_data() const { return payload_.data(); }
  [[nodiscard]] const u32* col_idx_data() const { return col_idx_.data(); }
  [[nodiscard]] const u32* row_ptr_data() const { return row_ptr_.data(); }

  // Builder surface: append stored tiles with non-decreasing tm and strictly
  // increasing tk within a row tile, then finalize() once. Returns the
  // tile's 32 zeroed payload words for the caller to fill — valid only until
  // the next append_tile() (the payload vector may reallocate).
  u32* append_tile(i64 tm, i64 tk);
  void finalize();

 private:
  i64 rows_ = 0, cols_ = 0;
  i64 padded_rows_ = 0, padded_cols_ = 0;
  i64 tiles_m_ = 0, tiles_k_ = 0;
  i64 open_tm_ = 0, open_tk_ = -1;  // append-order enforcement
  bool finalized_ = false;
  std::vector<u32> row_ptr_;  // tiles_m + 1 offsets
  std::vector<u32> col_idx_;  // nnz tile K-columns
  AlignedVector<u32> payload_;
};

}  // namespace qgtc
