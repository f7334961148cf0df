// End-to-end engine tests: pipeline wiring, stats, transfer accounting,
// zero-tile census, determinism.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/stats.hpp"

#include <sstream>

namespace qgtc::core {
namespace {

Dataset small_dataset() {
  DatasetSpec spec{"engine-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

EngineConfig small_config(gnn::ModelKind kind, int bits) {
  EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 32;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  return cfg;
}

TEST(Engine, BuildsBatchesAndCalibrates) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  EXPECT_EQ(engine.num_batches(), 4);
  EXPECT_TRUE(engine.model().calibrated());
  i64 covered = 0;
  for (const auto& bd : engine.batch_data()) covered += bd->batch.size();
  EXPECT_EQ(covered, 2000);
}

TEST(Engine, RunQuantizedPopulatesStats) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 2));
  const EngineStats s = engine.run_quantized(1);
  EXPECT_GT(s.forward_seconds, 0.0);
  EXPECT_EQ(s.batches, 4);
  EXPECT_EQ(s.nodes, 2000);
  EXPECT_GT(s.bmma_ops, 0);
  EXPECT_GT(s.tiles_jumped, 0);  // batching guarantees zero tiles
}

TEST(Engine, RunFp32Works) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kBatchedGIN, 4));
  const EngineStats s = engine.run_fp32(1);
  EXPECT_GT(s.forward_seconds, 0.0);
  EXPECT_EQ(s.nodes, 2000);
}

TEST(Engine, TransferAccountingPackedSmaller) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  const EngineStats s = engine.transfer_accounting();
  EXPECT_GT(s.packed_bytes, 0);
  EXPECT_GT(s.dense_bytes, s.packed_bytes);
  EXPECT_LT(s.packed_transfer_seconds, s.dense_transfer_seconds);
}

TEST(Engine, ZeroTileRatioInUnitRange) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  const double r = engine.nonzero_tile_ratio();
  EXPECT_GT(r, 0.0);
  EXPECT_LT(r, 1.0);  // block-diagonal batching guarantees zero tiles
}

TEST(Engine, MismatchedDimsThrow) {
  const Dataset ds = small_dataset();
  EngineConfig cfg = small_config(gnn::ModelKind::kClusterGCN, 4);
  cfg.model.in_dim = 99;
  EXPECT_THROW(QgtcEngine(ds, cfg), std::invalid_argument);
}

TEST(Engine, QuantizedLogitsDeterministic) {
  const Dataset ds = small_dataset();
  const EngineConfig cfg = small_config(gnn::ModelKind::kClusterGCN, 3);
  QgtcEngine e1(ds, cfg);
  QgtcEngine e2(ds, cfg);
  const auto& bd1 = *e1.batch_data().front();
  const auto& bd2 = *e2.batch_data().front();
  EXPECT_EQ(e1.model().forward_quantized(bd1.adj_tiles, bd1.features),
            e2.model().forward_quantized(bd2.adj_tiles, bd2.features));
}

TEST(TablePrinterTest, FormatsAlignedRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", TablePrinter::fmt(1.23456, 2)});
  t.add_row({"b", TablePrinter::fmt_pct(0.5, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
}

TEST(TablePrinterTest, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace qgtc::core
