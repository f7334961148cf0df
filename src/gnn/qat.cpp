#include "gnn/qat.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/dgl_fp32.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::gnn {

MatrixF fake_quant(const MatrixF& m, int bits) {
  if (bits >= 32) return m;
  const QuantParams qp = quant_params_from_data(m, bits);
  return dequantize_matrix(quantize_matrix(m, qp), qp);
}

namespace {

/// Symmetrically-normalised aggregation Y = D^-1/2 (A + I) D^-1/2 X.
/// Symmetric, so its transpose (needed in backprop) is itself.
MatrixF spmm_sym(const CsrGraph& g, const std::vector<float>& norm,
                 const MatrixF& x) {
  MatrixF y(x.rows(), x.cols(), 0.0f);
  const i64 d = x.cols();
  parallel_for(0, g.num_nodes(), [&](i64 u) {
    float* out = y.row(u).data();
    const float nu = norm[static_cast<std::size_t>(u)];
    const float* self = x.row(u).data();
    for (i64 j = 0; j < d; ++j) out[j] = nu * self[j];
    for (const i32 v : g.neighbors(u)) {
      const float nv = norm[static_cast<std::size_t>(v)];
      const float* src = x.row(v).data();
      for (i64 j = 0; j < d; ++j) out[j] += nv * src[j];
    }
    for (i64 j = 0; j < d; ++j) out[j] *= nu;
  });
  return y;
}

/// C = A^T * B (used for weight gradients). The K axis is cut into at most
/// kChunks fixed chunks whose boundaries depend only on A's shape; each
/// chunk reduces into its own partial and the partials are summed in chunk
/// order, so the result is bit-identical for any thread count.
MatrixF gemm_tn(const MatrixF& a, const MatrixF& b) {
  constexpr i64 kChunks = 64;
  const i64 n = b.cols();
  const i64 chunk = std::max<i64>(ceil_div(a.rows(), kChunks), 1);
  const i64 chunks = ceil_div(a.rows(), chunk);
  std::vector<MatrixF> partial(static_cast<std::size_t>(chunks));
  parallel_for_dynamic(0, chunks, 1, [&](i64 ch) {
    MatrixF& local = partial[static_cast<std::size_t>(ch)];
    local = MatrixF(a.cols(), n, 0.0f);
    for (i64 k = ch * chunk; k < std::min(a.rows(), (ch + 1) * chunk); ++k) {
      const float* arow = a.row(k).data();
      const float* brow = b.row(k).data();
      for (i64 i = 0; i < a.cols(); ++i) {
        const float aki = arow[i];
        if (aki == 0.0f) continue;
        float* crow = local.row(i).data();
        for (i64 j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  });
  MatrixF c(a.cols(), n, 0.0f);
  for (const MatrixF& local : partial) {
    for (i64 i = 0; i < c.size(); ++i) c.data()[i] += local.data()[i];
  }
  return c;
}

/// C = A * B^T (used for activation gradients).
MatrixF gemm_nt(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.rows(), 0.0f);
  parallel_for(0, a.rows(), [&](i64 i) {
    const float* arow = a.row(i).data();
    float* crow = c.row(i).data();
    for (i64 j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j).data();
      float acc = 0.0f;
      for (i64 k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  });
  return c;
}

MatrixF gemm_nn(const MatrixF& a, const MatrixF& b) {
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

float accuracy(const MatrixF& logits, const std::vector<i32>& labels,
               const std::vector<u8>& mask, u8 want) {
  i64 correct = 0, total = 0;
  for (i64 u = 0; u < logits.rows(); ++u) {
    if (mask[static_cast<std::size_t>(u)] != want) continue;
    const auto row = logits.row(u);
    const i64 pred = static_cast<i64>(
        std::max_element(row.begin(), row.end()) - row.begin());
    correct += (pred == labels[static_cast<std::size_t>(u)]);
    ++total;
  }
  return total == 0 ? 0.0f : static_cast<float>(correct) / static_cast<float>(total);
}

}  // namespace

QatResult train_qat_gcn(const Dataset& ds, const QatConfig& cfg) {
  const CsrGraph& g = ds.graph;
  const i64 n = g.num_nodes();
  const i64 d = ds.features.cols();
  const i64 classes = ds.spec.num_classes;

  std::vector<float> norm(static_cast<std::size_t>(n));
  for (i64 u = 0; u < n; ++u) {
    norm[static_cast<std::size_t>(u)] =
        1.0f / std::sqrt(static_cast<float>(g.degree(u) + 1));
  }

  // Train/test split.
  std::vector<u8> train_mask(static_cast<std::size_t>(n), 0);
  Rng rng(cfg.seed);
  for (i64 u = 0; u < n; ++u) {
    train_mask[static_cast<std::size_t>(u)] = rng.next_bool(cfg.train_frac) ? 1 : 0;
  }
  i64 n_train = 0;
  for (const u8 m : train_mask) n_train += m;
  if (n_train == 0) n_train = 1;

  // Layer-0 aggregation is constant across epochs: P = A_hat * fq(X).
  const MatrixF x0 = fake_quant(ds.features, cfg.bits);
  const MatrixF p = spmm_sym(g, norm, x0);

  GnnConfig mcfg;
  mcfg.kind = ModelKind::kClusterGCN;
  mcfg.num_layers = 2;
  mcfg.in_dim = d;
  mcfg.hidden_dim = cfg.hidden;
  mcfg.out_dim = classes;
  auto weights = init_weights(mcfg, cfg.seed ^ 0xabcdULL);
  MatrixF v1(weights[0].w.rows(), weights[0].w.cols(), 0.0f);  // momentum
  MatrixF v2(weights[1].w.rows(), weights[1].w.cols(), 0.0f);

  MatrixF logits;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const float lr =
        cfg.lr * (epoch >= cfg.epochs * 2 / 3 ? 0.25f : 1.0f);
    const MatrixF w1q = fake_quant(weights[0].w, cfg.bits);
    const MatrixF w2q = fake_quant(weights[1].w, cfg.bits);

    // Forward.
    MatrixF z1 = gemm_nn(p, w1q);
    MatrixF h1 = z1;
    baselines::relu_inplace(h1);
    const MatrixF h1q = fake_quant(h1, cfg.bits);
    const MatrixF q = spmm_sym(g, norm, h1q);
    logits = gemm_nn(q, w2q);

    // Backward: dZ2 = (softmax - onehot) / n_train on train nodes.
    MatrixF dz2(n, classes, 0.0f);
    parallel_for(0, n, [&](i64 u) {
      if (train_mask[static_cast<std::size_t>(u)] == 0) return;
      const auto row = logits.row(u);
      const float mx = *std::max_element(row.begin(), row.end());
      float sum = 0.0f;
      float* out = dz2.row(u).data();
      for (i64 c = 0; c < classes; ++c) {
        out[c] = std::exp(row[static_cast<std::size_t>(c)] - mx);
        sum += out[c];
      }
      const float inv = 1.0f / (sum * static_cast<float>(n_train));
      for (i64 c = 0; c < classes; ++c) out[c] *= inv;
      out[ds.labels[static_cast<std::size_t>(u)]] -=
          1.0f / static_cast<float>(n_train);
    });

    const MatrixF dw2 = gemm_tn(q, dz2);
    // dH1q = A_hat^T (dZ2 W2^T); A_hat symmetric so reuse spmm_sym.
    MatrixF dh1 = spmm_sym(g, norm, gemm_nt(dz2, w2q));
    // Straight-through: fake-quant and ReLU gradients gate on the fp32 z1.
    parallel_for(0, dh1.size(), [&](i64 i) {
      if (z1.data()[i] <= 0.0f) dh1.data()[i] = 0.0f;
    });
    const MatrixF dw1 = gemm_tn(p, dh1);

    // SGD with momentum (gradients flow straight through fake_quant to the
    // fp32 masters).
    parallel_for(0, v1.size(), [&](i64 i) {
      v1.data()[i] = cfg.momentum * v1.data()[i] - lr * dw1.data()[i];
      weights[0].w.data()[i] += v1.data()[i];
    });
    parallel_for(0, v2.size(), [&](i64 i) {
      v2.data()[i] = cfg.momentum * v2.data()[i] - lr * dw2.data()[i];
      weights[1].w.data()[i] += v2.data()[i];
    });
  }

  QatResult res;
  res.train_acc = accuracy(logits, ds.labels, train_mask, 1);
  res.test_acc = accuracy(logits, ds.labels, train_mask, 0);
  res.weights = std::move(weights);
  return res;
}

}  // namespace qgtc::gnn
