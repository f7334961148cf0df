// Out-of-core dataset store tests: writer/loader round-trip bit-identity,
// header (magic/version/endianness) guards, residency-budget behaviour, and
// engine parity — a store-backed engine must produce bit-identical logits
// and substrate counters to the in-core engine on the same dataset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "graph/io.hpp"
#include "store/dataset_store.hpp"
#include "store/format.hpp"

namespace qgtc {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning store directory under the test cwd (the build tree).
struct TempStoreDir {
  explicit TempStoreDir(const std::string& name)
      : path("qgtc_test_store_" + name) {
    fs::remove_all(path);
  }
  ~TempStoreDir() { fs::remove_all(path); }
  std::string path;
};

Dataset small_dataset() {
  DatasetSpec spec{"store-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

core::EngineConfig small_config(int bits = 4) {
  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  return cfg;
}

/// Writes the dataset with geometry that forces several feature chunks and
/// several CSR shards, so the multi-file paths are exercised.
void write_sharded(const std::string& dir, const Dataset& ds) {
  io::StoreWriteOptions opt;
  opt.chunk_cols = 5;         // 16 cols -> 4 chunks (last one ragged)
  opt.nodes_per_shard = 300;  // 2000 nodes -> 7 shards (last one ragged)
  io::save_dataset_store(dir, ds, opt);
}

TEST(DatasetStore, RoundTripsSpecLabelsGraphAndFeatures) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("roundtrip");
  write_sharded(dir.path, ds);
  const store::DatasetStore st = store::DatasetStore::open(dir.path);

  EXPECT_EQ(st.spec().name, ds.spec.name);
  EXPECT_EQ(st.spec().num_nodes, ds.spec.num_nodes);
  EXPECT_EQ(st.spec().feature_dim, ds.spec.feature_dim);
  EXPECT_EQ(st.labels(), ds.labels);
  EXPECT_GT(st.mapped_bytes(), 0);

  // Graph view identity across every node — including shard boundaries.
  ASSERT_EQ(st.graph().num_nodes(), ds.graph.num_nodes());
  ASSERT_EQ(st.graph().num_edges(), ds.graph.num_edges());
  for (i64 v = 0; v < ds.graph.num_nodes(); ++v) {
    ASSERT_EQ(st.graph().degree(v), ds.graph.degree(v)) << "node " << v;
    const auto a = st.graph().neighbors(v);
    const auto b = ds.graph.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << v;
  }

  // Feature gather bit-identity against the in-core rows, with an access
  // pattern that crosses every chunk.
  std::vector<i32> nodes;
  for (i32 v = 0; v < 2000; v += 7) nodes.push_back(v);
  const MatrixF got = st.features().gather(nodes);
  ASSERT_EQ(got.rows(), static_cast<i64>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto want = ds.features.row(nodes[i]);
    const auto have = got.row(static_cast<i64>(i));
    ASSERT_TRUE(std::equal(want.begin(), want.end(), have.begin()))
        << "row " << nodes[i];
  }
}

TEST(DatasetStore, ResidencyBudgetSweepsKeepGatherIdentical) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("residency");
  write_sharded(dir.path, ds);
  store::StoreOpenOptions opt;
  opt.residency_budget_bytes = 4096;  // sweep constantly
  const store::DatasetStore st = store::DatasetStore::open(dir.path, opt);
  std::vector<i32> nodes;
  for (i32 v = 0; v < 2000; v += 3) nodes.push_back(v);
  const MatrixF a = st.features().gather(nodes);
  const MatrixF b = st.features().gather(nodes);  // refault after DONTNEED
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto want = ds.features.row(nodes[i]);
    const auto have = a.row(static_cast<i64>(i));
    ASSERT_TRUE(std::equal(want.begin(), want.end(), have.begin()));
  }
}

// ------------------------------------------------------------------------
// Format guards: every store file carries magic + version + endianness and
// a corrupted header must be rejected, not misread.

/// Flips bytes at `offset` in `path`.
void corrupt_file(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  const u32 junk = 0xdeadbeef;
  f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
}

TEST(DatasetStore, RejectsCorruptMagic) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("badmagic");
  write_sharded(dir.path, ds);
  corrupt_file(dir.path + "/" + store::meta_filename(), 0);
  EXPECT_THROW(store::DatasetStore::open(dir.path), std::invalid_argument);
}

TEST(DatasetStore, RejectsCorruptVersion) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("badversion");
  write_sharded(dir.path, ds);
  corrupt_file(dir.path + "/" + store::chunk_filename(0),
               offsetof(store::FileHeader, version));
  EXPECT_THROW(store::DatasetStore::open(dir.path), std::invalid_argument);
}

TEST(DatasetStore, RejectsEndiannessMismatch) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("badendian");
  write_sharded(dir.path, ds);
  corrupt_file(dir.path + "/" + store::shard_filename(0),
               offsetof(store::FileHeader, endian));
  EXPECT_THROW(store::DatasetStore::open(dir.path), std::invalid_argument);
}

TEST(DatasetStore, RejectsMissingDirectory) {
  EXPECT_THROW(store::DatasetStore::open("qgtc_test_store_never_written"),
               std::invalid_argument);
}

TEST(DatasetIo, LegacyStreamRejectsEndiannessMismatch) {
  // The monolithic dataset format gained the same endianness probe (v2);
  // a stream whose probe word does not match must be rejected.
  const Dataset ds = small_dataset();
  std::stringstream buf;
  io::save_dataset(buf, ds);
  std::string bytes = buf.str();
  // Layout: magic(4) version(4) endian(4) ... — byte-swap the probe word to
  // what a big-endian writer would have produced.
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(io::load_dataset(corrupted), std::invalid_argument);
}

// ------------------------------------------------------------------------
// Engine parity: the store is a transparent substitution for the Dataset.

TEST(DatasetStore, EngineParityWithInCore) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("parity");
  write_sharded(dir.path, ds);
  const store::DatasetStore st = store::DatasetStore::open(dir.path);

  for (const bool streaming : {false, true}) {
    core::EngineConfig cfg = small_config();
    cfg.mode.epoch = streaming ? core::RunMode::Epoch::kStreaming
                               : core::RunMode::Epoch::kPrecomputed;
    core::QgtcEngine in_core(ds, cfg);
    core::QgtcEngine out_of_core(st, cfg);
    std::vector<MatrixI32> logits_a, logits_b;
    const core::EngineStats sa = in_core.run_quantized(1, &logits_a);
    const core::EngineStats sb = out_of_core.run_quantized(1, &logits_b);
    ASSERT_EQ(logits_a, logits_b)
        << "streaming=" << streaming;
    EXPECT_EQ(sa.bmma_ops, sb.bmma_ops);
    EXPECT_EQ(sa.tiles_jumped, sb.tiles_jumped);
    EXPECT_EQ(sa.nodes, sb.nodes);
    EXPECT_EQ(sb.mapped_bytes, st.mapped_bytes());
    EXPECT_EQ(sa.mapped_bytes, 0);
  }
}

TEST(DatasetStore, StoreEngineRunsFp32AndAccounting) {
  const Dataset ds = small_dataset();
  TempStoreDir dir("fp32");
  write_sharded(dir.path, ds);
  const store::DatasetStore st = store::DatasetStore::open(dir.path);
  core::EngineConfig cfg = small_config();
  core::QgtcEngine in_core(ds, cfg);
  core::QgtcEngine out_of_core(st, cfg);
  const core::EngineStats fa = in_core.run_fp32(1);
  const core::EngineStats fb = out_of_core.run_fp32(1);
  EXPECT_EQ(fa.nodes, fb.nodes);
  const core::EngineStats ta = in_core.transfer_accounting();
  const core::EngineStats tb = out_of_core.transfer_accounting();
  EXPECT_EQ(ta.packed_bytes, tb.packed_bytes);
  EXPECT_EQ(ta.dense_bytes, tb.dense_bytes);
  EXPECT_EQ(ta.adj_bytes, tb.adj_bytes);
}

}  // namespace
}  // namespace qgtc
