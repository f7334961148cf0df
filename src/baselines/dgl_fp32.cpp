#include "baselines/dgl_fp32.hpp"

#include "parallel/parallel_for.hpp"

namespace qgtc::baselines {

MatrixF spmm_csr(const CsrGraph& local, const MatrixF& x, bool add_self) {
  QGTC_CHECK(local.num_nodes() == x.rows(),
             "spmm_csr: adjacency/feature row mismatch");
  MatrixF y(x.rows(), x.cols(), 0.0f);
  const i64 d = x.cols();
  parallel_for(0, local.num_nodes(), [&](i64 u) {
    float* out = y.row(u).data();
    if (add_self) {
      const float* self = x.row(u).data();
      for (i64 j = 0; j < d; ++j) out[j] = self[j];
    }
    for (const i32 v : local.neighbors(u)) {
      const float* src = x.row(v).data();
      for (i64 j = 0; j < d; ++j) out[j] += src[j];
    }
  });
  return y;
}

MatrixF gemm_f32(const MatrixF& a, const MatrixF& b) {
  QGTC_CHECK(a.cols() == b.rows(), "gemm_f32: inner dimensions differ");
  MatrixF c(a.rows(), b.cols(), 0.0f);
  const i64 n = b.cols();
  parallel_for(0, a.rows(), [&](i64 i) {
    float* crow = c.row(i).data();
    for (i64 k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      const float* brow = b.row(k).data();
      for (i64 j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  });
  return c;
}

void relu_inplace(MatrixF& m) {
  parallel_for(0, m.size(), [&](i64 i) {
    if (m.data()[i] < 0.0f) m.data()[i] = 0.0f;
  });
}

}  // namespace qgtc::baselines
