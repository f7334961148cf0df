// Packed 1-bit matrices with the two compression layouts of paper §4.2
// (Figure 4), both 32-bit aligned and little-endian within each word:
//
//  * kRowMajorK ("column-wise compression", used for the left operand A):
//    each storage word holds 32 consecutive K-columns of one row, so a row's
//    128-bit tile slice is 4 contiguous words — coalesced across-column
//    access along each row.
//
//  * kColMajorK ("row-wise compression", used for the right operand B):
//    each storage word holds 32 consecutive K-rows of one column — coalesced
//    across-row access along each column.
//
// Both layouts pad the K extent to PAD128 and the non-K extent to PAD8 or
// PAD128 depending on whether the consumer is a TC tile (8) or the next
// layer's packed operand (128) — paper §4.2's two padding strategies.
#pragma once

#include <functional>
#include <vector>

#include "common/defs.hpp"
#include "common/matrix.hpp"

namespace qgtc {

enum class BitLayout {
  kRowMajorK,  // A-side: words run along K within a row
  kColMajorK,  // B-side: words run along K within a column
};

/// Non-K-extent padding policy (paper §4.2): PAD8 when the result feeds an
/// output layer, PAD128 when it becomes the next layer's packed operand.
enum class PadPolicy { kTile8, kOperand128 };

[[nodiscard]] constexpr i64 apply_pad(i64 x, PadPolicy p) {
  return p == PadPolicy::kTile8 ? pad8(x) : pad128(x);
}

class BitMatrix {
 public:
  BitMatrix() = default;

  /// Allocates a zeroed packed matrix for logical shape rows x cols.
  /// For kRowMajorK, K == cols; for kColMajorK, K == rows.
  BitMatrix(i64 rows, i64 cols, BitLayout layout,
            PadPolicy non_k_pad = PadPolicy::kTile8);

  [[nodiscard]] i64 rows() const { return rows_; }
  [[nodiscard]] i64 cols() const { return cols_; }
  [[nodiscard]] i64 padded_rows() const { return padded_rows_; }
  [[nodiscard]] i64 padded_cols() const { return padded_cols_; }
  [[nodiscard]] BitLayout layout() const { return layout_; }

  /// Number of u32 words along the packed (K) extent of one line.
  [[nodiscard]] i64 k_words() const { return k_words_; }
  /// Number of packed lines (rows for kRowMajorK, columns for kColMajorK).
  [[nodiscard]] i64 lines() const { return lines_; }

  /// Pointer to the packed words of row r (kRowMajorK only).
  [[nodiscard]] const u32* row_words(i64 r) const {
    return data_.data() + r * k_words_;
  }
  [[nodiscard]] u32* row_words(i64 r) { return data_.data() + r * k_words_; }

  /// Pointer to the packed words of column c (kColMajorK only).
  [[nodiscard]] const u32* col_words(i64 c) const {
    return data_.data() + c * k_words_;
  }
  [[nodiscard]] u32* col_words(i64 c) { return data_.data() + c * k_words_; }

  [[nodiscard]] bool get(i64 r, i64 c) const;
  void set(i64 r, i64 c, bool v);

  /// Bytes actually held by the packed representation (the number the
  /// bandwidth-optimised transfer path ships over PCIe).
  [[nodiscard]] i64 bytes() const {
    return static_cast<i64>(data_.size() * sizeof(u32));
  }

  [[nodiscard]] const u32* data() const { return data_.data(); }
  [[nodiscard]] u32* data() { return data_.data(); }

 private:
  i64 rows_ = 0, cols_ = 0;
  i64 padded_rows_ = 0, padded_cols_ = 0;
  i64 lines_ = 0, k_words_ = 0;
  BitLayout layout_ = BitLayout::kRowMajorK;
  AlignedVector<u32> data_;
};

/// One-pass plane packer (`bitDecompose` of Algorithm 1; the CPU form of a
/// warp ballot, where 32 lanes' bit b become one word). `planes` are zeroed
/// and share one shape and layout; `codes(r, out)` writes the cols() codes
/// of row r to `out`. Each code is produced once, and its bit b goes to
/// planes[b]; bits at or above planes.size() are dropped.
void pack_planes(std::vector<BitMatrix>& planes,
                 const std::function<void(i64, i32*)>& codes);

/// Packs the non-zero pattern of an int32 matrix (value != 0 -> bit 1).
BitMatrix pack_nonzero(const MatrixI32& m, BitLayout layout,
                       PadPolicy non_k_pad = PadPolicy::kTile8);

/// Unpacks to a 0/1 int32 matrix of the logical shape (drops padding).
MatrixI32 unpack_bits(const BitMatrix& bm);

}  // namespace qgtc
