#include "core/engine.hpp"

#include <algorithm>
#include <deque>

#include "common/mem.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::core {

QgtcEngine::QgtcEngine(const Dataset& dataset, const EngineConfig& cfg)
    : cfg_(cfg),
      dataset_(&dataset),
      spec_(dataset.spec),
      graph_(dataset.graph),
      features_(dataset.features) {
  init();
}

QgtcEngine::QgtcEngine(const store::DatasetStore& dstore,
                       const EngineConfig& cfg)
    : cfg_(cfg),
      dstore_(&dstore),
      spec_(dstore.spec()),
      graph_(dstore.graph()),
      features_(dstore.features()) {
  init();
}

void QgtcEngine::init() {
  QGTC_CHECK(cfg_.model.in_dim == spec_.feature_dim,
             "model in_dim must match dataset feature dim");
  QGTC_CHECK(cfg_.model.out_dim == spec_.num_classes,
             "model out_dim must match dataset class count");
  QGTC_CHECK(cfg_.mode.pipeline_depth >= 1, "pipeline_depth must be >= 1");
  QGTC_CHECK(cfg_.mode.prepare_threads >= 1, "prepare_threads must be >= 1");

  // The cache key's config half: anything that changes what prepare builds
  // for a given membership. (The cache is per-engine, so this is defensive —
  // it keeps keys unambiguous if entries ever move between engines.)
  u64 fp = 0xcbf29ce484222325ull;
  const auto mix = [&fp](u64 v) {
    fp ^= v;
    fp *= 0x100000001b3ull;
  };
  mix(cfg_.seed);
  mix(static_cast<u64>(cfg_.model.feat_bits));
  mix(static_cast<u64>(cfg_.model.weight_bits));
  mix(static_cast<u64>(cfg_.model.in_dim));
  cache_fingerprint_ = fp;
  cache_.set_budget(cfg_.cache_budget_bytes);

  batches_ = make_epoch_batches(graph_, cfg_);

  model_ = gnn::QgtcModel::create(cfg_.model, cfg_.seed);

  // Calibration is hoisted ahead of any epoch pipeline: the representative
  // batch is prepared first and fixes the requantization shifts (§4.5's
  // fused epilogue needs them before inference). prepare_batch does not
  // depend on calibration state, so hoisting preserves bit-identity — and
  // streaming mode needs the shifts before its first compute stage runs.
  if (!batches_.empty()) {
    // Always calibrate on GLOBAL batch 0, before any shard filter narrows
    // the batch list: every shard of a sharded run quantizes with the exact
    // shifts a single-engine run derives, which is what makes S-shard logits
    // bit-identical to 1-engine logits.
    BatchRef front =
        prepare_subgraph(batches_.front(),
                         /*build_fp32_csr=*/!cfg_.mode.streaming());
    {
      QGTC_SPAN("engine", "calibrate", {{"nodes", front->batch.size()}});
      model_.calibrate(front->adj_tiles, front->features);
    }

    // Shard filter: narrow to the listed global batch ids. Applied after
    // calibration so the filter changes only *which* batches run, never how
    // any batch is prepared or quantized.
    const bool front_is_batch0 =
        cfg_.shard_batches.empty() || cfg_.shard_batches.front() == 0;
    if (!cfg_.shard_batches.empty()) {
      std::vector<SubgraphBatch> sel;
      sel.reserve(cfg_.shard_batches.size());
      for (const i64 gid : cfg_.shard_batches) {
        QGTC_CHECK(gid >= 0 && gid < num_batches(),
                   "shard_batches id outside the global epoch batch list");
        sel.push_back(batches_[static_cast<std::size_t>(gid)]);
      }
      batches_ = std::move(sel);
    }

    if (!cfg_.mode.streaming()) {
      // Precomputed mode materialises the whole (filtered) epoch up front
      // (untimed preprocessing); the calibration batch is reused when it is
      // this engine's batch 0. The refs share ownership with the cache when
      // one is configured.
      data_.reserve(batches_.size());
      for (i64 i = 0; i < num_batches(); ++i) {
        if (i == 0 && front_is_batch0) {
          data_.push_back(front);
        } else {
          data_.push_back(prepare_batch(i));
        }
      }
    }
  }
}

std::vector<SubgraphBatch> make_epoch_batches(const CsrView& g,
                                              const EngineConfig& cfg) {
  const PartitionResult parts = partition_graph(g, cfg.num_partitions, {});
  return make_batches(parts, cfg.batch_size);
}

QgtcEngine::BatchRef QgtcEngine::prepare_batch(i64 i, bool build_fp32_csr,
                                               bool* cache_hit) const {
  QGTC_CHECK(i >= 0 && i < num_batches(), "batch index out of range");
  return prepare_subgraph(batches_[static_cast<std::size_t>(i)],
                          build_fp32_csr, cache_hit);
}

QgtcEngine::BatchRef QgtcEngine::prepare_subgraph(const SubgraphBatch& batch,
                                                  bool build_fp32_csr,
                                                  bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  const u32 needs =
      store::kCapPlanes | (build_fp32_csr ? store::kCapFp32Csr : 0u);
  if (cache_.enabled()) {
    if (BatchRef hit = cache_.lookup(batch, cache_fingerprint_, needs)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    }
  }
  auto bd = std::make_shared<BatchData>();
  static_cast<PreparedBatch&>(*bd) = prepare_batch_data(
      graph_, features_, batch, /*add_self_loops=*/true, build_fp32_csr);
  bd->x_planes = model_.prepare_input(bd->features);
  prepare_bytes_read_.fetch_add(
      batch.size() * spec_.feature_dim * static_cast<i64>(sizeof(float)),
      std::memory_order_relaxed);
  if (cache_.enabled()) {
    cache_.insert(batch, cache_fingerprint_, needs, bd->prepared_bytes(), bd);
  }
  return bd;
}

void QgtcEngine::stamp_cache_stats(EngineStats& stats,
                                   const store::BatchCacheStats& before,
                                   i64 bytes_before, int rounds) const {
  const store::BatchCacheStats after = cache_.stats();
  stats.cache_hits = (after.hits - before.hits) / rounds;
  stats.cache_misses = (after.misses - before.misses) / rounds;
  stats.cache_evictions = (after.evictions - before.evictions) / rounds;
  stats.cache_resident_bytes = after.resident_bytes;
  stats.prepare_bytes_read =
      (prepare_bytes_read() - bytes_before) / rounds;
  stats.mapped_bytes = mapped_bytes();
}

void QgtcEngine::set_execution(tcsim::BackendKind backend,
                               int inter_batch_threads) {
  QGTC_CHECK(inter_batch_threads >= 1, "inter_batch_threads must be >= 1");
  cfg_.backend = backend;
  cfg_.inter_batch_threads = inter_batch_threads;
}

void QgtcEngine::set_pipeline_depth(int depth) {
  QGTC_CHECK(depth >= 1, "pipeline_depth must be >= 1");
  cfg_.mode.pipeline_depth = depth;
}

namespace {
/// Worker count actually usable for an epoch: no more workers than batches.
int epoch_workers(int requested, i64 batches) {
  return static_cast<int>(std::clamp<i64>(requested, 1, std::max<i64>(batches, 1)));
}

/// Execution-setup stamp shared by both run paths.
void stamp_execution(EngineStats& stats, const EngineConfig& cfg, int workers) {
  stats.backend = tcsim::backend_name(cfg.backend);
  stats.inter_batch_threads = workers;
  stats.streaming = cfg.mode.streaming();
  stats.pipeline_depth = cfg.mode.streaming() ? cfg.mode.pipeline_depth : 0;
  stats.vm_hwm_bytes = vm_hwm_bytes();
}
}  // namespace

transfer::PackedSubgraph pack_prepared_batch(const QgtcEngine::BatchData& bd,
                                             transfer::StagingBuffer& slot,
                                             const transfer::PcieModel& pcie) {
  return transfer::pack_batch_tiles(bd.adj_tiles, bd.x_planes, slot, pcie);
}

EngineStats QgtcEngine::run_quantized(int rounds,
                                      std::vector<MatrixI32>* logits_out) {
  QGTC_CHECK(rounds >= 1, "rounds must be >= 1");
  if (logits_out != nullptr) {
    logits_out->assign(static_cast<std::size_t>(num_batches()), MatrixI32{});
  }
  return cfg_.mode.streaming() ? run_quantized_streaming(rounds, logits_out)
                        : run_quantized_precomputed(rounds, logits_out);
}

EngineStats QgtcEngine::run_quantized_precomputed(
    int rounds, std::vector<MatrixI32>* logits_out) {
  EngineStats stats;
  stats.batches = num_batches();
  const int workers = epoch_workers(cfg_.inter_batch_threads, num_batches());

  // One private-counter context per worker. Every batch's substrate
  // accounting lands in exactly one context; the post-epoch merge is a sum
  // over contexts, so totals are independent of which worker ran which
  // batch (and of `workers` itself).
  std::deque<tcsim::ExecutionContext> ctxs;
  for (int w = 0; w < workers; ++w) {
    ctxs.emplace_back(cfg_.backend, /*private_counters=*/true);
  }
  const auto epoch = [&] {
    parallel_for_workers(0, num_batches(), workers, [&](i64 i, int w) {
      QGTC_SPAN("compute", "batch", {{"batch", i}, {"worker", w}});
      const BatchData& bd = *data_[static_cast<std::size_t>(i)];
      tcsim::ExecutionContext& ctx = ctxs[static_cast<std::size_t>(w)];
      MatrixI32 logits = model_.forward_prepared(bd.adj_tiles, bd.x_planes,
                                                 /*stats=*/nullptr, &ctx);
      if (logits_out != nullptr) {
        (*logits_out)[static_cast<std::size_t>(i)] = std::move(logits);
      }
    });
  };

  // Warm-up epoch (first-touch allocation, per-worker arena growth).
  epoch();
  for (auto& ctx : ctxs) ctx.reset_counters();
  const store::BatchCacheStats cache0 = cache_.stats();
  const i64 bytes0 = prepare_bytes_read();

  Timer t;
  for (int r = 0; r < rounds; ++r) {
    QGTC_SPAN("engine", "epoch", {{"round", r}, {"batches", stats.batches}});
    epoch();
  }
  stats.forward_seconds = t.seconds() / rounds;
  stamp_cache_stats(stats, cache0, bytes0, rounds);

  for (const BatchRef& bd : data_) {
    stats.nodes += bd->batch.size();
    stats.peak_prepared_bytes += bd->prepared_bytes();  // whole epoch resident
  }
  tcsim::Counters total;
  for (const auto& ctx : ctxs) total += ctx.counters();
  stats.tiles_jumped = static_cast<i64>(total.tiles_jumped) / rounds;
  stats.bmma_ops = static_cast<i64>(total.bmma_ops) / rounds;
  stats.epilogue_fused_layers = model_.fused_stage_count();
  stats.int32_bytes_avoided = static_cast<i64>(total.int32_bytes_avoided) / rounds;
  stats.saturated = static_cast<i64>(total.saturated) / rounds;
  stamp_execution(stats, cfg_, workers);
  return stats;
}

EngineStats QgtcEngine::run_quantized_streaming(
    int rounds, std::vector<MatrixI32>* logits_out) {
  EngineStats stats;
  stats.batches = num_batches();
  const int workers = epoch_workers(cfg_.inter_batch_threads, num_batches());
  const int preparers = epoch_workers(cfg_.mode.prepare_threads, num_batches());
  stats.prepare_threads = preparers;

  std::deque<tcsim::ExecutionContext> ctxs;
  for (int w = 0; w < workers; ++w) {
    ctxs.emplace_back(cfg_.backend, /*private_counters=*/true);
  }

  const transfer::PcieModel pcie;
  StreamEpochConfig pcfg;
  pcfg.num_batches = num_batches();
  pcfg.depth = cfg_.mode.pipeline_depth;
  pcfg.prepare_workers = preparers;
  pcfg.compute_workers = workers;
  // The ring outlives the per-epoch pipeline so the warm-up epoch grows the
  // staging slots once and timed epochs reuse their capacity.
  transfer::StagingRing ring(2);

  // A pipeline item is a shared ref into the cache (or a freshly-built
  // batch); `cached` steers the ship stage — a hit's payload is already
  // device-resident, so nothing is packed or charged to the wire.
  struct StreamItem {
    BatchRef bd;
    bool cached = false;
  };
  const auto epoch = [&] {
    return run_stream_epoch<StreamItem>(
        pcfg, ring,
        /*prepare=*/
        [&](i64 i) {
          StreamItem item;
          item.bd = prepare_batch(i, /*build_fp32_csr=*/false, &item.cached);
          return item;
        },
        /*bytes=*/
        [](const StreamItem& item) {
          // Cache hits add no pipeline residency beyond the cache itself
          // (reported separately as cache_resident_bytes).
          return item.cached ? 0 : item.bd->prepared_bytes();
        },
        /*ship=*/
        [&](StreamItem& item, transfer::StagingBuffer& slot) {
          if (item.cached) return transfer::resident_reuse();
          return pack_prepared_batch(*item.bd, slot, pcie);
        },
        /*compute=*/
        [&](const StreamItem& item, i64 i, int w) {
          const BatchData& bd = *item.bd;
          tcsim::ExecutionContext& ctx = ctxs[static_cast<std::size_t>(w)];
          MatrixI32 logits = model_.forward_prepared(
              bd.adj_tiles, bd.x_planes, /*stats=*/nullptr, &ctx);
          if (logits_out != nullptr) {
            (*logits_out)[static_cast<std::size_t>(i)] = std::move(logits);
          }
        });
  };

  // Warm-up epoch (arena growth, staging-slot capacity, OS page faults),
  // mirroring the precomputed timing protocol. With a cache budget this is
  // also the fill epoch: timed rounds hit whatever it inserted.
  (void)epoch();
  for (auto& ctx : ctxs) ctx.reset_counters();
  const store::BatchCacheStats cache0 = cache_.stats();
  const i64 bytes0 = prepare_bytes_read();

  for (int r = 0; r < rounds; ++r) {
    QGTC_SPAN("engine", "epoch", {{"round", r}, {"batches", stats.batches}});
    const StreamEpochStats es = epoch();
    stats.forward_seconds += es.epoch_seconds;
    stats.packed_bytes += es.packed_bytes;
    stats.adj_bytes += es.adj_bytes;
    stats.packed_transfer_seconds += es.wire_seconds;
    stats.exposed_transfer_seconds += es.exposed_seconds;
    stats.peak_prepared_bytes =
        std::max(stats.peak_prepared_bytes, es.peak_prepared_bytes);
    stats.staging_capacity_bytes =
        std::max(stats.staging_capacity_bytes, es.staging_capacity_bytes);
    stats.stage_breakdown.prepare += es.prepare_stage;
    stats.stage_breakdown.ship += es.ship_stage;
    stats.stage_breakdown.compute += es.compute_stage;
  }
  stats.forward_seconds /= rounds;
  stats.packed_bytes /= rounds;
  stats.adj_bytes /= rounds;
  stats.packed_transfer_seconds /= rounds;
  stats.exposed_transfer_seconds /= rounds;
  const auto avg_stage = [&](obs::StageBreakdown& s) {
    s.busy_seconds /= rounds;
    s.stall_seconds /= rounds;
  };
  avg_stage(stats.stage_breakdown.prepare);
  avg_stage(stats.stage_breakdown.ship);
  avg_stage(stats.stage_breakdown.compute);
  stamp_cache_stats(stats, cache0, bytes0, rounds);

  for (const SubgraphBatch& b : batches_) stats.nodes += b.size();
  tcsim::Counters total;
  for (const auto& ctx : ctxs) total += ctx.counters();
  stats.tiles_jumped = static_cast<i64>(total.tiles_jumped) / rounds;
  stats.bmma_ops = static_cast<i64>(total.bmma_ops) / rounds;
  stats.epilogue_fused_layers = model_.fused_stage_count();
  stats.int32_bytes_avoided = static_cast<i64>(total.int32_bytes_avoided) / rounds;
  stats.saturated = static_cast<i64>(total.saturated) / rounds;
  stamp_execution(stats, cfg_, workers);
  return stats;
}

EngineStats QgtcEngine::run_fp32(int rounds) {
  QGTC_CHECK(rounds >= 1, "rounds must be >= 1");
  if (cfg_.mode.streaming()) return run_fp32_streaming(rounds);
  EngineStats stats;
  stats.batches = num_batches();
  const int workers = epoch_workers(cfg_.inter_batch_threads, num_batches());
  stats.inter_batch_threads = workers;
  stats.streaming = false;
  const auto epoch = [&] {
    parallel_for_workers(0, num_batches(), workers, [&](i64 i, int) {
      const BatchData& bd = *data_[static_cast<std::size_t>(i)];
      (void)model_.forward_fp32(bd.local, bd.features);
    });
  };
  epoch();
  Timer t;
  for (int r = 0; r < rounds; ++r) epoch();
  stats.forward_seconds = t.seconds() / rounds;
  for (const SubgraphBatch& b : batches_) stats.nodes += b.size();
  return stats;
}

EngineStats QgtcEngine::run_fp32_streaming(int rounds) {
  // The DGL-substitute baseline rides the SAME staged executor as the
  // quantized path (prepare workers -> ship -> compute workers over bounded
  // queues), so the comparison stays symmetric: both pay the pipeline's
  // coordination costs and both charge their transfer model inline. It does
  // NOT consult the BatchCache — prepared-batch reuse is this system's
  // optimisation, not the baseline's.
  EngineStats stats;
  stats.batches = num_batches();
  const int workers = epoch_workers(cfg_.inter_batch_threads, num_batches());
  const int preparers =
      epoch_workers(cfg_.mode.prepare_threads, num_batches());
  stats.inter_batch_threads = workers;
  stats.streaming = true;
  stats.pipeline_depth = cfg_.mode.pipeline_depth;
  stats.prepare_threads = preparers;

  const transfer::PcieModel pcie;
  StreamEpochConfig pcfg;
  pcfg.num_batches = num_batches();
  pcfg.depth = cfg_.mode.pipeline_depth;
  pcfg.prepare_workers = preparers;
  pcfg.compute_workers = workers;
  transfer::StagingRing ring(2);

  struct Fp32Item {
    CsrGraph local;
    MatrixF features;
  };
  const auto epoch = [&] {
    return run_stream_epoch<Fp32Item>(
        pcfg, ring,
        /*prepare=*/
        [&](i64 i) {
          const SubgraphBatch& b = batches_[static_cast<std::size_t>(i)];
          Fp32Item item;
          item.local = build_batch_csr(graph_, b, /*add_self_loops=*/true);
          item.features = features_.gather(b.nodes);
          return item;
        },
        /*bytes=*/
        [](const Fp32Item& item) {
          return item.features.size() * static_cast<i64>(sizeof(float)) +
                 static_cast<i64>(item.local.row_ptr().size() * sizeof(i64)) +
                 static_cast<i64>(item.local.col_idx().size() * sizeof(i32));
        },
        /*ship=*/
        [&](Fp32Item& item, transfer::StagingBuffer&) {
          // Modelled dense fp32 transfer (adjacency + standalone embedding),
          // charged inline; no staging copy — the baseline has no compound
          // packed object to build.
          return transfer::dense_fp32_baseline(item.features.rows(),
                                               spec_.feature_dim, pcie);
        },
        /*compute=*/
        [&](const Fp32Item& item, i64, int) {
          (void)model_.forward_fp32(item.local, item.features);
        });
  };

  (void)epoch();  // warm-up, mirroring the quantized timing protocol
  for (int r = 0; r < rounds; ++r) {
    const StreamEpochStats es = epoch();
    stats.forward_seconds += es.epoch_seconds;
    stats.dense_bytes += es.packed_bytes;
    stats.dense_transfer_seconds += es.wire_seconds;
    stats.exposed_transfer_seconds += es.exposed_seconds;
    stats.peak_prepared_bytes =
        std::max(stats.peak_prepared_bytes, es.peak_prepared_bytes);
    stats.stage_breakdown.prepare += es.prepare_stage;
    stats.stage_breakdown.ship += es.ship_stage;
    stats.stage_breakdown.compute += es.compute_stage;
  }
  stats.forward_seconds /= rounds;
  stats.dense_bytes /= rounds;
  stats.dense_transfer_seconds /= rounds;
  stats.exposed_transfer_seconds /= rounds;
  const auto avg_stage = [&](obs::StageBreakdown& s) {
    s.busy_seconds /= rounds;
    s.stall_seconds /= rounds;
  };
  avg_stage(stats.stage_breakdown.prepare);
  avg_stage(stats.stage_breakdown.ship);
  avg_stage(stats.stage_breakdown.compute);
  for (const SubgraphBatch& b : batches_) stats.nodes += b.size();
  stats.vm_hwm_bytes = vm_hwm_bytes();
  return stats;
}

EngineStats QgtcEngine::transfer_accounting() const {
  EngineStats stats;
  stats.batches = num_batches();
  stats.streaming = cfg_.mode.streaming();
  const store::BatchCacheStats cache0 = cache_.stats();
  const i64 bytes0 = prepare_bytes_read();
  transfer::PcieModel pcie;
  transfer::StagingBuffer staging;
  // Packed path: 1-bit adjacency + s-bit embedding planes as one compound
  // object, shipping the *prepared* input planes byte-for-byte (the host
  // quantizes and decomposes exactly once, in prepare_batch — nothing is
  // re-derived here).
  const auto account = [&](const BatchData& bd) {
    const auto packed = pack_prepared_batch(bd, staging, pcie);
    stats.packed_bytes += packed.total_bytes;
    stats.packed_transfer_seconds += packed.modeled_seconds;
    stats.adj_bytes += packed.adjacency_bytes;

    const auto dense = transfer::dense_fp32_baseline(
        bd.batch.size(), spec_.feature_dim, pcie);
    stats.dense_bytes += dense.total_bytes;
    stats.dense_transfer_seconds += dense.modeled_seconds;
  };
  if (cfg_.mode.streaming()) {
    // One batch resident at a time — accounting stays inside the streaming
    // memory budget (the fp32-only CSR is not part of the packed payload).
    // With a cache budget, batches a prior run inserted are not re-prepared.
    for (i64 i = 0; i < num_batches(); ++i) {
      account(*prepare_batch(i, /*build_fp32_csr=*/false));
    }
  } else {
    for (const BatchRef& bd : data_) account(*bd);
  }
  stamp_cache_stats(stats, cache0, bytes0, /*rounds=*/1);
  return stats;
}

double QgtcEngine::nonzero_tile_ratio() const {
  // The tile-CSR knows its census structurally — no per-batch dense rescan.
  i64 total = 0, nonzero = 0;
  const auto census = [&](const TileSparseBitMatrix& tiles) {
    total += tiles.total_tiles();
    nonzero += tiles.nnz_tiles();
  };
  if (cfg_.mode.streaming()) {
    for (const SubgraphBatch& b : batches_) {
      census(build_batch_adjacency_tiles(graph_, b,
                                         /*add_self_loops=*/true));
    }
  } else {
    for (const BatchRef& bd : data_) census(bd->adj_tiles);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(nonzero) / static_cast<double>(total);
}

}  // namespace qgtc::core
