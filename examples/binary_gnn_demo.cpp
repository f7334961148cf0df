// Fully binarized GNN demo — the XOR tensor-core mode (paper §2.3 cites
// binary GNNs as a TC workload; QGTC's 1-bit case). Compares the binarized
// model's latency against the any-bitwidth quantized model at 2 and 4 bits
// on one dataset, and verifies the XOR kernel against its naive reference.
//
// Build & run:  ./build/examples/binary_gnn_demo
#include <iostream>

#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/stats.hpp"
#include "gnn/binary_gnn.hpp"

int main() {
  using namespace qgtc;

  DatasetSpec spec{"binary-demo", 30000, 240000, 32, 8, 96, 21};
  std::cout << "Generating dataset (" << spec.num_nodes << " nodes)...\n";
  const Dataset ds = generate_dataset(spec);

  core::EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = spec.num_classes;
  cfg.model.feat_bits = 2;
  cfg.model.weight_bits = 2;
  cfg.num_partitions = 192;
  cfg.batch_size = 8;
  core::QgtcEngine engine(ds, cfg);

  // Binarized model over the same batches.
  const gnn::BinaryGnnModel bin = gnn::BinaryGnnModel::create(cfg.model, 3);
  const auto& data = engine.batch_data();
  // The XOR combine has no zero-tile jumping, so the binarized model runs
  // on each batch's dense adjacency (densified once, outside the timing).
  std::vector<BitMatrix> adj;
  adj.reserve(data.size());
  for (const auto& bd : data) adj.push_back(bd->adj_tiles.to_bit_matrix());

  // Sanity: packed XOR path == naive reference on the first batch.
  const MatrixI32 a = bin.forward(adj[0], data[0]->features);
  const MatrixI32 b = bin.forward_reference(adj[0], data[0]->features);
  std::cout << "XOR kernel vs naive reference on batch 0: "
            << (a == b ? "EXACT MATCH" : "MISMATCH!") << "\n";

  const double bin_s = time_it([&] {
    for (std::size_t i = 0; i < data.size(); ++i) {
      (void)bin.forward(adj[i], data[i]->features);
    }
  }, 0.5);
  const double q2_s = engine.run_quantized(2).forward_seconds;

  core::TablePrinter t({"model", "ms/epoch"});
  t.add_row({"binarized (+-1, XOR)", core::TablePrinter::fmt(bin_s * 1e3, 1)});
  t.add_row({"QGTC 2-bit (AND)", core::TablePrinter::fmt(q2_s * 1e3, 1)});
  t.print(std::cout);
  std::cout << "\nBinarized inference trades accuracy for the smallest "
               "possible bit-level footprint;\nany-bitwidth QGTC is the knob "
               "between this extreme and fp32.\n";
  return 0;
}
