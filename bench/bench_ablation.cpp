// Ablation bench (DESIGN.md §4): isolates each §4 optimisation on one
// mid-size dataset (artist, Cluster GCN, 4-bit): zero-tile jumping, kernel
// fusion, non-zero tile reuse — full epoch latency per variant.
#include <cstring>
#include <iostream>

#include "bench_fig7_common.hpp"

namespace {

/// `a` as a tile-CSR that stores every tile, zero or not: the kernels visit
/// each tile, so the "no zero-tile jumping" rows jump nothing (tiles_jumped
/// stays 0) on the same layout the jumping rows run on.
qgtc::TileSparseBitMatrix every_tile(const qgtc::TileSparseBitMatrix& a) {
  using namespace qgtc;
  TileSparseBitMatrix out(a.rows(), a.cols());
  for (i64 tm = 0; tm < a.tiles_m(); ++tm) {
    i64 t = a.row_begin(tm);
    for (i64 tk = 0; tk < a.tiles_k(); ++tk) {
      u32* dst = out.append_tile(tm, tk);
      if (t < a.row_end(tm) && a.tile_col(t) == tk) {
        std::memcpy(dst, a.tile_words(t),
                    TileSparseBitMatrix::kTileWords * sizeof(u32));
        ++t;
      }
    }
  }
  out.finalize();
  return out;
}

}  // namespace

int main() {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "Ablation — contribution of each QGTC kernel optimisation",
      "each of zero-tile jumping / fusion / tile reuse contributes; jumping "
      "dominates on sparse batched adjacencies");

  const auto spec = table1_spec(bench::quick() ? "Proteins" : "artist");
  const Dataset ds = generate_dataset(spec);

  core::EngineConfig ecfg;
  ecfg.model.kind = gnn::ModelKind::kClusterGCN;
  ecfg.model.num_layers = 3;
  ecfg.model.in_dim = spec.feature_dim;
  ecfg.model.hidden_dim = 16;
  ecfg.model.out_dim = spec.num_classes;
  ecfg.model.feat_bits = 4;
  ecfg.model.weight_bits = 4;
  ecfg.num_partitions = 1500;
  ecfg.batch_size = 16;
  const core::QgtcEngine engine(ds, ecfg);
  const auto& data = engine.batch_data();
  const i64 max_batches = env_i64("QGTC_MAX_BATCHES", bench::quick() ? 8 : 0);
  const i64 timed = max_batches > 0
                        ? std::min<i64>(max_batches, static_cast<i64>(data.size()))
                        : static_cast<i64>(data.size());
  std::vector<TileSparseBitMatrix> all_tiles;
  all_tiles.reserve(static_cast<std::size_t>(timed));
  for (i64 i = 0; i < timed; ++i) {
    all_tiles.push_back(every_tile(data[static_cast<std::size_t>(i)]->adj_tiles));
  }

  struct Variant {
    std::string name;
    bool jump;
    bool fused;
    ReuseMode reuse;
  };
  const std::vector<Variant> variants = {
      {"full (jump+fusion+reuse)", true, true, ReuseMode::kCrossTile},
      {"no zero-tile jumping", false, true, ReuseMode::kCrossTile},
      {"no kernel fusion", true, false, ReuseMode::kCrossTile},
      {"no tile reuse (cross-bit)", true, false, ReuseMode::kCrossBit},
      {"none of the three", false, false, ReuseMode::kCrossBit},
  };

  TablePrinter table({"Variant", "epoch ms", "slowdown vs full"});
  double full_s = 0.0;
  for (const auto& v : variants) {
    gnn::GnnConfig mcfg = ecfg.model;
    mcfg.zero_tile_jump = v.jump;
    mcfg.fused_epilogue = v.fused;
    mcfg.reuse = v.reuse;
    gnn::QgtcModel model = gnn::QgtcModel::create(mcfg, ecfg.seed);
    model.calibrate(data.front()->adj_tiles, data.front()->features);
    std::vector<StackedBitTensor> inputs;
    inputs.reserve(data.size());
    for (const auto& bd : data) inputs.push_back(model.prepare_input(bd->features));
    const double s = bench::time_epoch(data, max_batches, [&](const auto& bd, i64 i) {
      const std::size_t b = static_cast<std::size_t>(i);
      (void)model.forward_prepared(v.jump ? bd.adj_tiles : all_tiles[b],
                                   inputs[b]);
    });
    if (full_s == 0.0) full_s = s;
    table.add_row({v.name, bench::ms(s), TablePrinter::fmt(s / full_s, 2) + "x"});
    std::cerr << "  [done] " << v.name << "\n";
  }
  table.print(std::cout);
  std::cout << "\n(dataset: " << spec.name << ", Cluster GCN 3x16, 4-bit)\n";
  return 0;
}
