#include "bittensor/bit_matrix.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace qgtc {

BitMatrix::BitMatrix(i64 rows, i64 cols, BitLayout layout, PadPolicy non_k_pad)
    : rows_(rows), cols_(cols), layout_(layout) {
  QGTC_CHECK(rows >= 0 && cols >= 0, "BitMatrix dimensions must be non-negative");
  if (layout == BitLayout::kRowMajorK) {
    // K runs along columns: PAD128 on K, caller-chosen pad on rows.
    padded_rows_ = apply_pad(rows, non_k_pad);
    padded_cols_ = pad128(cols);
    lines_ = padded_rows_;
    k_words_ = padded_cols_ / kWordBits;
  } else {
    // K runs along rows: PAD128 on K, caller-chosen pad on columns.
    padded_rows_ = pad128(rows);
    padded_cols_ = apply_pad(cols, non_k_pad);
    lines_ = padded_cols_;
    k_words_ = padded_rows_ / kWordBits;
  }
  data_.assign(static_cast<std::size_t>(lines_ * k_words_), 0u);
}

bool BitMatrix::get(i64 r, i64 c) const {
  if (layout_ == BitLayout::kRowMajorK) {
    const u32 w = row_words(r)[c / kWordBits];
    return (w >> (c % kWordBits)) & 1u;
  }
  const u32 w = col_words(c)[r / kWordBits];
  return (w >> (r % kWordBits)) & 1u;
}

void BitMatrix::set(i64 r, i64 c, bool v) {
  u32* w;
  int bit;
  if (layout_ == BitLayout::kRowMajorK) {
    w = &row_words(r)[c / kWordBits];
    bit = static_cast<int>(c % kWordBits);
  } else {
    w = &col_words(c)[r / kWordBits];
    bit = static_cast<int>(r % kWordBits);
  }
  if (v) {
    *w |= (1u << bit);
  } else {
    *w &= ~(1u << bit);
  }
}

void pack_planes(std::vector<BitMatrix>& planes,
                 const std::function<void(i64, i32*)>& codes) {
  const int bits = static_cast<int>(planes.size());
  const i64 rows = planes.front().rows();
  const i64 cols = planes.front().cols();
  const i64 words = ceil_div(cols, kWordBits);
  const bool row_major = planes.front().layout() == BitLayout::kRowMajorK;
  // One 32-row block per task. Row j of a block is read once, in memory
  // order, and its bit b lands at position c % 32 of word (r, c / 32) in
  // kRowMajorK, or at position j of word (c, block) in kColMajorK (built in
  // a bits x cols buffer). Shift and OR, never a branch on a bit's value.
  parallel_for(0, ceil_div(rows, kWordBits), [&](i64 blk) {
    const i64 r0 = blk * kWordBits;
    const int n = static_cast<int>(std::min<i64>(kWordBits, rows - r0));
    std::vector<i32> v(static_cast<std::size_t>(words * kWordBits), 0);
    std::vector<u32> acc(row_major ? 0 : static_cast<std::size_t>(bits * cols));
    for (int j = 0; j < n; ++j) {
      codes(r0 + j, v.data());  // never writes the zero tail past `cols`
      for (int b = 0; b < bits; ++b) {
        if (row_major) {
          u32* out = planes[static_cast<std::size_t>(b)].row_words(r0 + j);
          for (i64 w = 0; w < words; ++w) {
            const i32* vw = v.data() + w * kWordBits;
            u32 word = 0;
            for (int i = 0; i < kWordBits; ++i) {
              word |= static_cast<u32>((vw[i] >> b) & 1) << i;
            }
            out[w] = word;
          }
        } else {
          u32* a = acc.data() + b * cols;
          for (i64 c = 0; c < cols; ++c) {
            a[c] |= static_cast<u32>((v[static_cast<std::size_t>(c)] >> b) & 1)
                    << j;
          }
        }
      }
    }
    if (row_major) return;
    for (int b = 0; b < bits; ++b) {
      BitMatrix& p = planes[static_cast<std::size_t>(b)];
      for (i64 c = 0; c < cols; ++c) {
        p.col_words(c)[blk] = acc[static_cast<std::size_t>(b * cols + c)];
      }
    }
  });
}

BitMatrix pack_nonzero(const MatrixI32& m, BitLayout layout, PadPolicy pad) {
  std::vector<BitMatrix> plane{BitMatrix(m.rows(), m.cols(), layout, pad)};
  pack_planes(plane, [&m](i64 r, i32* out) {
    for (i64 c = 0; c < m.cols(); ++c) out[c] = m(r, c) != 0 ? 1 : 0;
  });
  return std::move(plane.front());
}

MatrixI32 unpack_bits(const BitMatrix& bm) {
  MatrixI32 out(bm.rows(), bm.cols(), 0);
  for (i64 r = 0; r < bm.rows(); ++r) {
    for (i64 c = 0; c < bm.cols(); ++c) out(r, c) = bm.get(r, c) ? 1 : 0;
  }
  return out;
}

}  // namespace qgtc
