// §4.1 granularity study: "the more number of the subgraphs/partitions would
// lead to denser edge connections within each subgraph, which may bring
// better computation and memory locality", and batch size controls device
// utilisation. Sweeps partition count and batch size on one dataset and
// reports intra-edge fraction, non-zero tile ratio, and epoch latency.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "Partition/batch granularity study (paper §4.1)",
      "more partitions => denser subgraphs (fewer non-zero tiles per node); "
      "batch size trades utilisation vs memory");

  const auto spec = table1_spec(bench::quick() ? "Proteins" : "artist");
  const Dataset ds = generate_dataset(spec);
  bench::JsonReport json("partition_sweep", argc, argv);
  json.meta("workload", "partition/batch granularity sweep");
  json.meta("dataset", spec.name);
  json.meta("nodes", static_cast<double>(spec.num_nodes));
  json.meta("edges", static_cast<double>(spec.num_edges));
  json.meta("feature_dim", static_cast<double>(spec.feature_dim));

  TablePrinter table({"partitions", "batch", "intra-edge %", "non-zero tiles %",
                      "QGTC 4-bit ms", "DGL fp32 ms"});
  const std::vector<i64> part_counts =
      bench::quick() ? std::vector<i64>{375, 1500}
                     : std::vector<i64>{375, 750, 1500, 3000};
  for (const i64 parts : part_counts) {
    for (const i64 batch : {8, 16}) {
      core::EngineConfig cfg;
      cfg.model.kind = gnn::ModelKind::kClusterGCN;
      cfg.model.num_layers = 3;
      cfg.model.in_dim = spec.feature_dim;
      cfg.model.hidden_dim = 16;
      cfg.model.out_dim = spec.num_classes;
      cfg.model.feat_bits = 4;
      cfg.model.weight_bits = 4;
      cfg.num_partitions = parts;
      cfg.batch_size = batch;
      core::QgtcEngine engine(ds, cfg);

      const PartitionResult pr = partition_graph(ds.graph, parts, {});
      const double q_s = engine.run_quantized(2).forward_seconds;
      const double f_s = engine.run_fp32(2).forward_seconds;
      table.add_row({std::to_string(parts), std::to_string(batch),
                     TablePrinter::fmt_pct(pr.intra_edge_fraction(ds.graph), 1),
                     TablePrinter::fmt_pct(engine.nonzero_tile_ratio(), 1),
                     bench::ms(q_s), bench::ms(f_s)});
      json.add_row({{"kind", "granularity"}},
                   {{"partitions", static_cast<double>(parts)},
                    {"batch", static_cast<double>(batch)},
                    {"intra_edge_fraction", pr.intra_edge_fraction(ds.graph)},
                    {"nonzero_tile_ratio", engine.nonzero_tile_ratio()},
                    {"qgtc_seconds", q_s},
                    {"fp32_seconds", f_s}});
      std::cerr << "  [done] parts=" << parts << " batch=" << batch << "\n";
    }
  }
  table.print(std::cout);
  std::cout << "\n(dataset: " << spec.name << ")\n";
  bench::add_memory_meta(json);
  return 0;
}
