// Traced child: times the public entry point of each layer from outside, on
// the workload's own data and model, inside bench-side QGTC_SPANs whose
// category is the layer name. Every workload runs every probe, so every
// per-layer metric exists for every workload.
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "client.hpp"
#include "common/timer.hpp"
#include "e2e.hpp"
#include "graph/io.hpp"
#include "obs/trace.hpp"
#include "store/dataset_store.hpp"

namespace e2e {

using namespace qgtc;

namespace {

constexpr double kMB = 1e6;

/// Argmax rows of `q` that agree with `f`'s argmax (first max wins in both).
template <typename A, typename B>
i64 top1_agree(const A& q, const B& f) {
  i64 agree = 0;
  for (i64 r = 0; r < q.rows(); ++r) {
    const auto qr = q.row(r);
    const auto fr = f.row(r);
    agree += (std::max_element(qr.begin(), qr.end()) - qr.begin()) ==
             (std::max_element(fr.begin(), fr.end()) - fr.begin());
  }
  return agree;
}

FusedEpilogue epilogue_of(const gnn::EpiloguePlan& p) {
  FusedEpilogue e;
  e.act = p.act;
  e.rshift = p.rshift;
  return e;
}

/// Weight planes of layer `l` rebuilt from the model's fp32 weights by the
/// rule the model caches them with (quantize, then keep the planes the codes
/// occupy). The model does not expose its cached planes, so this is a copy of
/// that rule; `replay_forward` checks it on every batch.
StackedBitTensor weight_planes(const gnn::QgtcModel& model, int l) {
  const gnn::GnnConfig& mc = model.config();
  const MatrixF& w = model.weights()[static_cast<std::size_t>(l)].w;
  const MatrixI32 q =
      quantize_matrix(w, quant_params_from_data(w, mc.weight_bits));
  int bits = mc.weight_bits;
  if (mc.per_layer_bits) {
    const i32 mx =
        std::max(1, *std::max_element(q.data(), q.data() + q.size()));
    bits = std::clamp(32 - std::countl_zero(static_cast<u32>(mx)), 1,
                      mc.weight_bits);
  }
  return StackedBitTensor::decompose(q, bits, BitLayout::kColMajorK,
                                     PadPolicy::kTile8);
}

/// Accumulates wall time of `fn` into `sum_s`.
template <typename Fn>
auto timed(double& sum_s, Fn&& fn) {
  Timer t;
  auto out = fn();
  sum_s += t.seconds();
  return out;
}

struct LayerSums {
  double adj = 0, gather = 0, store_gather = 0, quantize = 0, decompose = 0,
         pack = 0, forward = 0, agg0 = 0, upd0 = 0;
  i64 nnz_tiles = 0, total_tiles = 0, packed_bytes = 0, fp32_bytes = 0;
  double wire_s = 0;
  i64 agree = 0, rows = 0;
};

/// The model's fused forward pass rebuilt from the public kernel entry
/// points, with `w[l]` as layer l's weights, timing layer 0's aggregate and
/// update stages into `s`. Its logits equal forward_prepared's only if the
/// stage order, the plans and every layer's weight planes match the model's,
/// so comparing them checks what kernels.agg0_ms and kernels.upd0_ms time.
MatrixI32 replay_forward(const gnn::QgtcModel& model,
                         const std::vector<StackedBitTensor>& w,
                         const TileSparseBitMatrix& adj,
                         const StackedBitTensor& x, const BmmOptions& opt,
                         LayerSums& s) {
  const gnn::GnnConfig& mc = model.config();
  QGTC_CHECK(mc.fused_epilogue && !mc.gin_mlp,
             "the layer replay covers the fused single-stage models only");
  const bool gcn = mc.kind == gnn::ModelKind::kClusterGCN;
  StackedBitTensor cur = x;
  for (int l = 0; l < mc.num_layers; ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    const bool last = l + 1 == mc.num_layers;
    const gnn::EpiloguePlan& ap = model.agg_plan(l);
    const gnn::EpiloguePlan& up = model.upd_plan(l);
    double unused = 0;
    double& agg_s = l == 0 ? s.agg0 : unused;
    double& upd_s = l == 0 ? s.upd0 : unused;
    const auto aggregate = [&](const StackedBitTensor& in) {
      return timed(agg_s, [&] {
        QGTC_SPAN("kernels", "aggregate_fused_bit", {{"layer", l}});
        return aggregate_fused_bit(adj, in, ap.out_bits, epilogue_of(ap), opt,
                                   PadPolicy::kTile8);
      });
    };
    const auto update = [&](const StackedBitTensor& in) {
      return timed(upd_s, [&] {
        QGTC_SPAN("kernels", "bitmm_fused_bit", {{"layer", l}});
        return bitmm_fused_bit(in, w[li], up.out_bits, epilogue_of(up), opt,
                               PadPolicy::kTile8, BitLayout::kColMajorK);
      });
    };
    if (gcn) {
      const StackedBitTensor xn = aggregate(cur);
      if (last) return bitmm_fused_int(xn, w[li], {}, opt);
      cur = update(xn);
    } else {
      const StackedBitTensor xu = update(cur);
      if (last) return aggregate_1bit(adj, xu, mc.reuse, opt);
      cur = aggregate(xu);
    }
  }
  throw std::logic_error("model has no layers");
}

}  // namespace

Report trace_layers(const Workload& w, const std::string& dir, double seconds,
                    u64 seed, const std::string& trace_path) {
  Report rep;
  const bool stream = w.shape == Shape::kStream;
  const core::EngineConfig& cfg = w.cfg;
  const Dataset ds = io::load_dataset_file(dir + "/dataset.bin");
  const store::DatasetStore st =
      store::DatasetStore::open(dir + "/store", store_options());

  obs::SpanSink& sink = obs::SpanSink::instance();
  sink.clear();
  sink.enable();

  // The engine the workload runs (serve: its model over offline epochs).
  std::unique_ptr<core::QgtcEngine> engine =
      stream ? std::make_unique<core::QgtcEngine>(st, cfg)
             : std::make_unique<core::QgtcEngine>(ds, cfg);
  const gnn::QgtcModel& model = engine->model();
  const gnn::GnnConfig& mc = model.config();
  const bool gcn = mc.kind == gnn::ModelKind::kClusterGCN;
  std::vector<MatrixI32> ref_logits;
  const core::EngineStats ref = engine->run_quantized(1, &ref_logits);

  // ------------------------------------------------------------- graph ----
  std::vector<SubgraphBatch> batches;
  Timer part_t;
  {
    QGTC_SPAN("graph", "partition_graph+make_batches");
    batches = make_batches(
        partition_graph(engine->graph(), cfg.num_partitions, {}),
        cfg.batch_size);
  }
  const double partition_s = part_t.seconds();
  if (static_cast<i64>(batches.size()) != engine->num_batches()) {
    ++rep.failed;
  }
  ++rep.attempted;

  // ------------------------------------------- single-thread layer replay ----
  const int omp_before = omp_get_max_threads();
  omp_set_num_threads(1);
  std::vector<StackedBitTensor> wplanes;
  for (int l = 0; l < mc.num_layers; ++l) {
    wplanes.push_back(weight_planes(model, l));
  }
  BmmOptions opt;
  opt.zero_tile_jump = mc.zero_tile_jump;
  opt.allow_overflow = mc.feat_bits > 8 || mc.weight_bits > 8;
  tcsim::ExecutionContext fwd_ctx(cfg.backend, /*private_counters=*/true);
  tcsim::ExecutionContext kern_ctx(cfg.backend, /*private_counters=*/true);
  opt.ctx = &kern_ctx;
  const BitLayout in_layout =
      gcn ? BitLayout::kColMajorK : BitLayout::kRowMajorK;
  const transfer::PcieModel pcie;
  transfer::StagingBuffer staging;
  const i64 store_read0 = st.features().bytes_read();
  LayerSums s;
  const CsrView& g = engine->graph();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const SubgraphBatch& batch = batches[b];
    const TileSparseBitMatrix tiles = timed(s.adj, [&] {
      QGTC_SPAN("graph", "build_batch_adjacency_tiles");
      return build_batch_adjacency_tiles(g, batch, /*add_self_loops=*/true);
    });
    const MatrixF x = timed(s.gather, [&] {
      QGTC_SPAN("graph", "gather_rows");
      return gather_rows(ds.features, batch.nodes);
    });
    const MatrixF xs = timed(s.store_gather, [&] {
      QGTC_SPAN("store", "gather_rows");
      return gather_rows(st.features(), batch.nodes);
    });
    ++rep.attempted;
    if (xs.size() != x.size() ||
        std::memcmp(xs.data(), x.data(),
                    sizeof(float) * static_cast<std::size_t>(x.size())) != 0) {
      ++rep.failed;
    }
    const MatrixI32 q = timed(s.quantize, [&] {
      QGTC_SPAN("bittensor", "quantize");
      return quantize_matrix(x, quant_params_from_data(x, mc.feat_bits));
    });
    const StackedBitTensor planes = timed(s.decompose, [&] {
      QGTC_SPAN("bittensor", "decompose");
      return StackedBitTensor::decompose(q, mc.feat_bits, in_layout,
                                         PadPolicy::kTile8);
    });
    const transfer::PackedSubgraph packed = timed(s.pack, [&] {
      QGTC_SPAN("transfer", "pack_batch_tiles");
      return transfer::pack_batch_tiles(tiles, planes, staging, pcie);
    });
    s.packed_bytes += packed.total_bytes;
    s.wire_s += packed.modeled_seconds;
    s.fp32_bytes +=
        transfer::dense_fp32_baseline(batch.size(), ds.spec.feature_dim, pcie)
            .total_bytes;
    s.nnz_tiles += tiles.nnz_tiles();
    s.total_tiles += tiles.total_tiles();

    const MatrixI32 logits = timed(s.forward, [&] {
      QGTC_SPAN("gnn", "forward_prepared");
      return model.forward_prepared(tiles, planes, /*stats=*/nullptr, &fwd_ctx);
    });
    ++rep.attempted;
    if (b >= ref_logits.size() || digest(logits) != digest(ref_logits[b])) {
      ++rep.failed;
    }
    s.agree += top1_agree(logits, model.forward_fp32(
                                      build_batch_csr(g, batch, true), x));
    s.rows += logits.rows();

    ++rep.attempted;
    if (digest(replay_forward(model, wplanes, tiles, planes, opt, s)) !=
        digest(logits)) {
      ++rep.failed;
    }
  }
  omp_set_num_threads(omp_before);
  const i64 store_read = st.features().bytes_read() - store_read0;
  const tcsim::Counters fc = fwd_ctx.counters();
  const tcsim::Counters kc = kern_ctx.counters();
  ++rep.attempted;
  if (static_cast<i64>(fc.bmma_ops) != ref.bmma_ops ||
      static_cast<i64>(fc.tiles_jumped) != ref.tiles_jumped ||
      kc.bmma_ops != fc.bmma_ops || kc.tiles_jumped != fc.tiles_jumped) {
    ++rep.failed;
  }

  // ---------------------------------------------------- core: pipeline ----
  core::EngineStats piped = ref;
  if (!stream) {
    core::EngineConfig scfg = cfg;
    scfg.mode = core::RunMode::streaming_pipeline(
        2, 1, core::RunMode::Adjacency::kTileSparse);
    core::QgtcEngine streaming(ds, scfg);
    std::vector<MatrixI32> logits;
    piped = streaming.run_quantized(1, &logits);
    for (std::size_t b = 0; b < logits.size(); ++b) {
      ++rep.attempted;
      if (b >= ref_logits.size() ||
          digest(logits[b]) != digest(ref_logits[b])) {
        ++rep.failed;
      }
    }
  }

  // ----------------------------------------------------- core: serving ----
  // The measured serving child's two dispatch paths on this workload's model:
  // bursts of one full micro-batch, then an open loop at kHighLoadShare of
  // the capacity those bursts reached.
  core::ServingStats before, after;
  PhaseResult full, open;
  {
    const core::ServingPolicy policy = serving_policy();
    const int burst = static_cast<int>(policy.max_batch_requests);
    std::unique_ptr<core::ServingEngine> srv =
        stream ? std::make_unique<core::ServingEngine>(st, cfg, policy)
               : std::make_unique<core::ServingEngine>(ds, cfg, policy);
    const i64 n = ds.graph.num_nodes();
    const PhaseResult warm =
        run_bursts(*srv, make_requests(n, 256, seed ^ 0x55), burst, 0.2);
    before = srv->stats();
    full = run_bursts(*srv, make_requests(n, 1024, seed ^ 0x66), burst, 1.0);
    after = srv->stats();
    const double qps = kHighLoadShare * static_cast<double>(full.completed()) /
                       full.wall_s;
    const i64 count = std::max<i64>(200, std::llround(qps));
    open = run_open_loop(*srv, make_requests(n, count, seed ^ 0x77),
                         poisson_schedule(qps, count, seed ^ 0x7700));
    const core::ServingStats end_stats = srv->stats();
    srv->stop();
    for (const PhaseResult* p : {&warm, &std::as_const(full),
                                 &std::as_const(open)}) {
      rep.attempted += p->attempted;
      rep.failed += p->failed;
    }
    rep.note("serving_open_qps", qps);
    rep.note("serving_open_requests", static_cast<double>(open.attempted));
    rep.set("serving.timeout_dispatch_frac",
            dispatch_share(after, end_stats,
                           &core::ServingStats::dispatches_timeout),
            "ratio");
  }
  sink.disable();

  // ------------------------------------------- baselines + trace overhead ----
  std::vector<double> fp32_s, plain_s, traced_s;
  for (int i = 0; i < 3; ++i) {
    fp32_s.push_back(engine->run_fp32(1).forward_seconds);
  }
  Timer overhead_t;
  while (overhead_t.seconds() < seconds || plain_s.size() < 3) {
    plain_s.push_back(engine->run_quantized(1).forward_seconds);
    sink.enable();
    traced_s.push_back(engine->run_quantized(1).forward_seconds);
    sink.disable();
  }
  ++rep.attempted;
  if (!sink.write_chrome_trace(trace_path)) ++rep.failed;
  sink.clear();

  // ------------------------------------------------------------ report ----
  const double epoch_ms = median(plain_s) * 1e3;
  const auto mb = [](i64 bytes) { return static_cast<double>(bytes) / kMB; };
  const auto set_stage = [&rep](const std::string& prefix,
                                const obs::StageBreakdown& b, bool stall) {
    rep.set(prefix + "_busy_ms", b.busy_seconds * 1e3, "ms");
    if (stall) rep.set(prefix + "_stall_ms", b.stall_seconds * 1e3, "ms");
  };
  const auto full_stage = [&](obs::StageBreakdown core::ServingStats::*stage) {
    return obs::StageBreakdown{
        (after.*stage).busy_seconds - (before.*stage).busy_seconds,
        (after.*stage).stall_seconds - (before.*stage).stall_seconds};
  };

  rep.set("graph.partition_s", partition_s, "s");
  rep.set("graph.adj_tiles_ms", s.adj * 1e3, "ms");
  rep.set("graph.gather_ms", s.gather * 1e3, "ms");
  rep.set("graph.nonzero_tile_ratio",
          static_cast<double>(s.nnz_tiles) / static_cast<double>(s.total_tiles),
          "ratio");
  rep.set("bittensor.quantize_ms", s.quantize * 1e3, "ms");
  rep.set("bittensor.decompose_ms", s.decompose * 1e3, "ms");
  rep.set("transfer.pack_ms", s.pack * 1e3, "ms");
  rep.set("transfer.packed_mb", mb(s.packed_bytes), "MB");
  rep.set("transfer.fp32_mb", mb(s.fp32_bytes), "MB");
  rep.set("gnn.forward_ms", s.forward * 1e3, "ms");
  rep.set("gnn.fp32_top1_agree",
          static_cast<double>(s.agree) / static_cast<double>(s.rows), "ratio");
  rep.set("kernels.agg0_ms", s.agg0 * 1e3, "ms");
  rep.set("kernels.upd0_ms", s.upd0 * 1e3, "ms");
  rep.set("kernels.bmma_ops", static_cast<double>(fc.bmma_ops), "count");
  rep.set("kernels.tiles_jumped", static_cast<double>(fc.tiles_jumped),
          "count");
  rep.set("kernels.int32_bytes_avoided",
          static_cast<double>(fc.int32_bytes_avoided), "B");
  // Computed, not measured: 128 B per A/B fragment load, 256 B per 8x8
  // int32 accumulator store.
  rep.set("kernels.bytes_moved_mb",
          mb(static_cast<i64>(128 * (fc.frag_loads_a + fc.frag_loads_b) +
                              256 * fc.frag_stores)),
          "MB");
  rep.set("store.gather_ms", s.store_gather * 1e3, "ms");
  rep.set("store.read_mb", mb(store_read), "MB");
  rep.set("store.mapped_mb", mb(st.mapped_bytes()), "MB");
  rep.set("pipeline.epoch_ms", piped.forward_seconds * 1e3, "ms");
  // A prepare stage that is the bottleneck never stalls, so its stall time
  // reads exactly 0; compute and ship stalls carry the same signal.
  set_stage("pipeline.prepare", piped.stage_breakdown.prepare, false);
  set_stage("pipeline.ship", piped.stage_breakdown.ship, true);
  set_stage("pipeline.compute", piped.stage_breakdown.compute, true);
  rep.set("pipeline.peak_prepared_mb", mb(piped.peak_prepared_bytes), "MB");
  rep.set("serving.latency_ms_p50", percentile_ms(open.latency_s, 50), "ms");
  rep.set("serving.latency_ms_p99", percentile_ms(open.latency_s, 99), "ms");
  rep.set("serving.queue_ms_p50", percentile_ms(open.queue_s, 50), "ms");
  rep.set("serving.queue_ms_p99", percentile_ms(open.queue_s, 99), "ms");
  rep.set("serving.mean_batch_requests",
          open.batch_requests_sum /
              static_cast<double>(std::max<i64>(1, open.completed())),
          "count");
  rep.set("client.lag_ms_p99", percentile_ms(open.lag_s, 99), "ms");
  rep.set("serving.full_dispatch_frac",
          dispatch_share(before, after, &core::ServingStats::dispatches_full),
          "ratio");
  set_stage("serving.batcher", full_stage(&core::ServingStats::batcher_stage),
            true);
  set_stage("serving.prepare", full_stage(&core::ServingStats::prepare_stage),
            true);
  set_stage("serving.compute", full_stage(&core::ServingStats::compute_stage),
            true);
  rep.set("serving.capacity_qps",
          static_cast<double>(full.completed()) / full.wall_s, "1/s");
  const double fp32_ms = median(fp32_s) * 1e3;
  rep.set("baselines.fp32_epoch_ms", fp32_ms, "ms");
  rep.set("baselines.speedup_vs_fp32", fp32_ms / epoch_ms, "x");
  rep.set("obs.trace_overhead_pct",
          (median(traced_s) * 1e3 / epoch_ms - 1.0) * 100.0, "%");
  // Modelled, not measured, and a fixed function of the packed bytes, so it
  // is context rather than a metric: the same seed gives the same value.
  rep.note("transfer_wire_ms_modelled", s.wire_s * 1e3);
  rep.note("epoch_ms", epoch_ms);
  rep.note("overhead_pairs", static_cast<double>(plain_s.size()));
  rep.note("trace", trace_path);
  return rep;
}

}  // namespace e2e
