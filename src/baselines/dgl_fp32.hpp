// DGL-substitute baseline (see DESIGN.md): the full-precision GNN compute
// path the paper compares against. DGL runs highly-optimised fp32 CUDA-core
// kernels — sparse SpMM for neighbour aggregation and dense GEMM for the
// node update; we provide the OpenMP CPU equivalents.
#pragma once

#include "common/matrix.hpp"
#include "graph/csr.hpp"

namespace qgtc::baselines {

/// Y = A x X (sum aggregation over the local CSR adjacency), optionally
/// adding the self term (A + I).
MatrixF spmm_csr(const CsrGraph& local, const MatrixF& x, bool add_self = true);

/// Dense fp32 GEMM, OpenMP-parallel, i-k-j loop order (vectorisable inner j).
MatrixF gemm_f32(const MatrixF& a, const MatrixF& b);

void relu_inplace(MatrixF& m);

}  // namespace qgtc::baselines
