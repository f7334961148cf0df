// QAT tests: fake-quant semantics and the Table-2 accuracy trend on a small
// planted-community dataset.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>

#include "gnn/qat.hpp"

namespace qgtc::gnn {
namespace {

Dataset small_dataset() {
  DatasetSpec spec{"qat", 1200, 9600, 16, 4, 8, 33};
  return generate_dataset(spec);
}

TEST(Qat, FakeQuantIdentityAt32) {
  MatrixF m(3, 3, 0.123f);
  m(1, 1) = -4.5f;
  const MatrixF q = fake_quant(m, 32);
  EXPECT_FLOAT_EQ(max_abs_diff(m, q), 0.0f);
}

TEST(Qat, FakeQuantBoundedError) {
  MatrixF m(8, 8);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = static_cast<float>(i) * 0.17f - 3.0f;
  for (const int bits : {2, 4, 8}) {
    const QuantParams p = quant_params_from_data(m, bits);
    EXPECT_LE(max_abs_diff(m, fake_quant(m, bits)), p.scale() * 1.001f);
  }
}

TEST(Qat, FakeQuantCoarserAtFewerBits) {
  MatrixF m(32, 32);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = std::sin(static_cast<float>(i));
  EXPECT_GT(max_abs_diff(m, fake_quant(m, 2)), max_abs_diff(m, fake_quant(m, 8)));
}

TEST(Qat, TrainingLearnsTask) {
  const Dataset ds = small_dataset();
  QatConfig cfg;
  cfg.bits = 32;
  cfg.epochs = 25;
  const QatResult res = train_qat_gcn(ds, cfg);
  // 4 balanced classes: chance is 25 %; planted features are easy.
  EXPECT_GT(res.test_acc, 0.6f);
  EXPECT_GT(res.train_acc, 0.6f);
  ASSERT_EQ(res.weights.size(), 2u);
}

TEST(Qat, Deterministic) {
  const Dataset ds = small_dataset();
  QatConfig cfg;
  cfg.bits = 8;
  cfg.epochs = 5;
  const QatResult a = train_qat_gcn(ds, cfg);
  const QatResult b = train_qat_gcn(ds, cfg);
  EXPECT_FLOAT_EQ(a.test_acc, b.test_acc);
  EXPECT_FLOAT_EQ(max_abs_diff(a.weights[0].w, b.weights[0].w), 0.0f);

  // Bit-identical across thread counts, not only run to run.
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(1);
  const QatResult one = train_qat_gcn(ds, cfg);
  omp_set_num_threads(4);
  const QatResult four = train_qat_gcn(ds, cfg);
  omp_set_num_threads(threads_before);
  ASSERT_EQ(one.weights.size(), four.weights.size());
  for (std::size_t l = 0; l < one.weights.size(); ++l) {
    const MatrixF& w1 = one.weights[l].w;
    const MatrixF& w4 = four.weights[l].w;
    ASSERT_EQ(w1.size(), w4.size());
    EXPECT_EQ(std::memcmp(w1.data(), w4.data(),
                          sizeof(float) * static_cast<std::size_t>(w1.size())),
              0)
        << "layer " << l;
  }
  EXPECT_EQ(one.test_acc, four.test_acc);
}

TEST(Qat, AccuracyTrendAcrossBits) {
  // Table 2's claim: 8-bit ~ fp32; 2-bit collapses. Allow slack, assert the
  // ordering between the extremes.
  const Dataset ds = small_dataset();
  QatConfig cfg;
  cfg.epochs = 25;

  cfg.bits = 32;
  const float fp32 = train_qat_gcn(ds, cfg).test_acc;
  cfg.bits = 8;
  const float q8 = train_qat_gcn(ds, cfg).test_acc;
  cfg.bits = 2;
  const float q2 = train_qat_gcn(ds, cfg).test_acc;

  EXPECT_GT(fp32, 0.6f);
  EXPECT_GT(q8, fp32 - 0.15f);  // 8-bit within a few points of fp32
  EXPECT_LT(q2, fp32);          // 2-bit strictly worse
}

}  // namespace
}  // namespace qgtc::gnn
