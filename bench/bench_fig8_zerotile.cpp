// Figure 8: zero-tile jumping efficiency — fraction of 8x128 TC tiles of the
// batched subgraph adjacency that actually contain edges (the tiles QGTC
// processes) per Table-1 dataset. The census comes from the batches'
// tile-CSRs, which store exactly those tiles; the byte columns set the
// tile-CSR's resident and shipped adjacency bytes against the dense bit
// plane (padded_rows * padded_cols / 8) the same batches would occupy.
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "Figure 8 — zero-tile jumping efficiency",
      "only 6..43% of adjacency tiles processed (paper: Proteins 33.3%, "
      "artist 43.1%, BlogCatalog 36.2%, PPI 34.7%, arxiv 6.3%, products 16.5%)");

  TablePrinter table({"Dataset", "tiles total", "tiles non-zero",
                      "processed w/ ZTS", "paper", "dense-plane MB",
                      "tile-CSR MB", "bytes ratio", "shipped adj MB"});
  const std::vector<std::string> paper_pct = {"33.33%", "43.10%", "36.22%",
                                              "34.71%", "6.32%", "16.50%"};
  std::size_t idx = 0;
  for (const auto& spec : bench::bench_datasets()) {
    const Dataset ds = generate_dataset(spec);
    core::EngineConfig ecfg;
    ecfg.model.kind = gnn::ModelKind::kClusterGCN;
    ecfg.model.num_layers = 3;
    ecfg.model.in_dim = spec.feature_dim;
    ecfg.model.hidden_dim = 16;
    ecfg.model.out_dim = spec.num_classes;
    ecfg.num_partitions = 1500;
    ecfg.batch_size = 16;
    const core::QgtcEngine engine(ds, ecfg);

    i64 total = 0, nonzero = 0, dense_bytes = 0, csr_bytes = 0;
    for (const auto& bdp : engine.batch_data()) {
      const TileSparseBitMatrix& tiles = bdp->adj_tiles;
      total += tiles.total_tiles();
      nonzero += tiles.nnz_tiles();
      dense_bytes += tiles.padded_rows() * tiles.padded_cols() / 8;
      csr_bytes += tiles.bytes();
    }
    const i64 shipped = engine.transfer_accounting().adj_bytes;
    table.add_row({spec.name, std::to_string(total), std::to_string(nonzero),
                   TablePrinter::fmt_pct(static_cast<double>(nonzero) /
                                             static_cast<double>(total),
                                         2),
                   idx < paper_pct.size() ? paper_pct[idx] : "-",
                   TablePrinter::fmt(static_cast<double>(dense_bytes) / 1e6, 2),
                   TablePrinter::fmt(static_cast<double>(csr_bytes) / 1e6, 2),
                   TablePrinter::fmt_pct(static_cast<double>(csr_bytes) /
                                             static_cast<double>(dense_bytes),
                                         1),
                   TablePrinter::fmt(static_cast<double>(shipped) / 1e6, 2)});
    ++idx;
    std::cerr << "  [done] " << spec.name << "\n";
  }
  table.print(std::cout);
  std::cout << "\nZero tiles come from (1) batching: no edges between "
               "different subgraphs\nof a batch, and (2) missing "
               "intra-subgraph edges (paper §6.3).\n";
  return 0;
}
