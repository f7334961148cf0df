#include "core/sharded.hpp"

#include <algorithm>
#include <thread>

#include "common/mem.hpp"
#include "core/autotune.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "parallel/affinity.hpp"

namespace qgtc::core {

ShardPlan make_shard_plan(const CsrView& g,
                          const std::vector<SubgraphBatch>& batches,
                          int num_shards) {
  QGTC_CHECK(num_shards >= 1, "shard plan needs at least one shard");
  ShardPlan plan;
  plan.num_shards = num_shards;
  if (num_shards == 1) {
    plan.owner.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  } else {
    // Coarse S-way ownership from the same METIS substitute the engine's
    // fine-grained partitioning uses: neighbours cluster under one owner, so
    // batch halos shrink the same way a METIS-driven multi-GPU split's do.
    plan.owner = partition_graph(g, num_shards, {}).part_of;
  }

  plan.shard_batches.assign(static_cast<std::size_t>(num_shards), {});
  plan.batch_shard.reserve(batches.size());
  std::vector<i64> votes(static_cast<std::size_t>(num_shards), 0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::fill(votes.begin(), votes.end(), 0);
    for (const i32 u : batches[b].nodes) {
      ++votes[static_cast<std::size_t>(plan.owner[static_cast<std::size_t>(u)])];
    }
    // Plurality owner, ties to the lowest shard id (deterministic).
    i64 best = 0;
    for (i64 s = 1; s < num_shards; ++s) {
      if (votes[static_cast<std::size_t>(s)] > votes[static_cast<std::size_t>(best)]) best = s;
    }
    plan.batch_shard.push_back(best);
    plan.shard_batches[static_cast<std::size_t>(best)].push_back(
        static_cast<i64>(b));
  }
  return plan;
}

ShardedEngine::ShardedEngine(const Dataset& dataset, const EngineConfig& cfg,
                             const ShardedConfig& scfg)
    : dataset_(&dataset), cfg_(cfg), scfg_(scfg) {
  QGTC_CHECK(scfg_.num_shards >= 1, "num_shards must be >= 1");
  QGTC_CHECK(cfg_.shard_batches.empty(),
             "EngineConfig::shard_batches is owned by ShardedEngine");
  global_batches_ = make_epoch_batches(dataset.graph, cfg_);
  plan_ = make_shard_plan(dataset.graph, global_batches_, scfg_.num_shards);
  if (scfg_.pin_numa) {
    cpu_slices_ =
        affinity::shard_cpu_slices(affinity::detect_topology(), scfg_.num_shards);
  }
  halo_ = std::make_unique<comm::HaloExchange>(scfg_.num_shards,
                                               scfg_.interconnect);
  depth_override_.assign(static_cast<std::size_t>(scfg_.num_shards), 0);
  build_engines();
}

void ShardedEngine::set_plan(ShardPlan plan) {
  QGTC_CHECK(plan.num_shards == plan_.num_shards,
             "set_plan must keep the shard count");
  QGTC_CHECK(plan.num_batches() == static_cast<i64>(global_batches_.size()),
             "set_plan must cover the global batch list");
  plan_ = std::move(plan);
  reports_.clear();
  build_engines();
}

void ShardedEngine::build_engines() {
  const int S = plan_.num_shards;
  engines_.clear();
  engines_.resize(static_cast<std::size_t>(S));
  int nonempty = 0;
  for (int s = 0; s < S; ++s) {
    if (!plan_.shard_batches[static_cast<std::size_t>(s)].empty()) ++nonempty;
  }
  nonempty = std::max(nonempty, 1);
  // The worker budget splits across concurrently-running shards, so a
  // sharded run never oversubscribes the host relative to the single-engine
  // config it is compared against.
  const int shard_workers = std::max(1, cfg_.inter_batch_threads / nonempty);
  const int shard_preparers = std::max(1, cfg_.mode.prepare_threads / nonempty);

  // Each engine is constructed inside its shard's (optionally pinned)
  // thread: precomputed batch data gets first-touched on the shard's NUMA
  // node, which is the locality the pinning exists to exploit.
  std::vector<char> pinned(static_cast<std::size_t>(S), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    if (plan_.shard_batches[static_cast<std::size_t>(s)].empty()) continue;
    threads.emplace_back([this, s, shard_workers, shard_preparers, &pinned] {
      if (scfg_.pin_numa && static_cast<std::size_t>(s) < cpu_slices_.size()) {
        pinned[static_cast<std::size_t>(s)] =
            affinity::pin_current_thread(
                cpu_slices_[static_cast<std::size_t>(s)])
                ? 1
                : 0;
      }
      EngineConfig ecfg = cfg_;
      ecfg.shard_batches = plan_.shard_batches[static_cast<std::size_t>(s)];
      ecfg.inter_batch_threads = shard_workers;
      ecfg.mode.prepare_threads = shard_preparers;
      if (depth_override_[static_cast<std::size_t>(s)] > 0) {
        ecfg.mode.pipeline_depth = depth_override_[static_cast<std::size_t>(s)];
      }
      engines_[static_cast<std::size_t>(s)] =
          std::make_unique<QgtcEngine>(*dataset_, ecfg);
    });
  }
  for (std::thread& t : threads) t.join();
  pinned_.assign(static_cast<std::size_t>(S), false);
  for (int s = 0; s < S; ++s) {
    pinned_[static_cast<std::size_t>(s)] = pinned[static_cast<std::size_t>(s)] != 0;
  }
}

EngineStats ShardedEngine::run_quantized(int rounds,
                                         std::vector<MatrixI32>* logits_out) {
  QGTC_CHECK(rounds >= 1, "rounds must be >= 1");
  const int S = plan_.num_shards;
  if (logits_out != nullptr) {
    logits_out->assign(static_cast<std::size_t>(num_batches()), MatrixI32{});
  }
  const store::FeatureSource features(dataset_->features);

  std::vector<EngineStats> shard_stats(static_cast<std::size_t>(S));
  std::vector<std::vector<MatrixI32>> local_logits(static_cast<std::size_t>(S));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    if (engines_[static_cast<std::size_t>(s)] == nullptr) continue;
    threads.emplace_back([this, s, S, rounds, logits_out, &features,
                          &shard_stats, &local_logits] {
      QGTC_SPAN("shard", "run", {{"shard", s}});
      if (scfg_.pin_numa && static_cast<std::size_t>(s) < cpu_slices_.size()) {
        (void)affinity::pin_current_thread(
            cpu_slices_[static_cast<std::size_t>(s)]);
      }
      const std::vector<i64>& ids =
          plan_.shard_batches[static_cast<std::size_t>(s)];

      // Per-epoch halo movement: each of this shard's batches pulls its
      // foreign-owned feature rows through the modelled interconnect. One
      // pass = one epoch's traffic, matching the per-epoch normalisation of
      // every other EngineStats field.
      std::vector<double> wire(ids.size(), 0.0);
      i64 halo_nodes = 0, halo_bytes = 0;
      double wire_total = 0.0;
      {
        QGTC_SPAN("shard", "halo_exchange", {{"shard", s}});
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const SubgraphBatch& b =
              global_batches_[static_cast<std::size_t>(ids[k])];
          const comm::HaloExchange::BatchHalo h = halo_->exchange(
              features, b.nodes, plan_.owner, s);
          wire[k] = h.wire_seconds;
          halo_nodes += h.halo_nodes;
          halo_bytes += h.bytes;
          wire_total += h.wire_seconds;
        }
      }

      EngineStats st = engines_[static_cast<std::size_t>(s)]->run_quantized(
          rounds, logits_out != nullptr ? &local_logits[static_cast<std::size_t>(s)]
                                        : nullptr);

      // Exposed-halo replay: the same two-engine overlap model streaming
      // transfers use, with each batch's compute slice estimated from its
      // node share of the shard's measured epoch.
      std::vector<double> compute(ids.size(), 0.0);
      i64 shard_nodes = 0;
      for (const i64 gid : ids) {
        shard_nodes += global_batches_[static_cast<std::size_t>(gid)].size();
      }
      if (shard_nodes > 0) {
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const i64 n = global_batches_[static_cast<std::size_t>(ids[k])].size();
          compute[k] = st.forward_seconds * static_cast<double>(n) /
                       static_cast<double>(shard_nodes);
        }
      }
      st.shards = S;
      st.halo_nodes = halo_nodes;
      st.halo_bytes = halo_bytes;
      st.halo_wire_seconds = wire_total;
      st.exposed_halo_seconds = exposed_transfer_seconds(wire, compute);
      shard_stats[static_cast<std::size_t>(s)] = st;
    });
  }
  for (std::thread& t : threads) t.join();

  // Scatter shard-local logits back to their global batch slots — the
  // bit-parity surface against a single-engine run.
  if (logits_out != nullptr) {
    for (int s = 0; s < S; ++s) {
      const std::vector<i64>& ids =
          plan_.shard_batches[static_cast<std::size_t>(s)];
      std::vector<MatrixI32>& local = local_logits[static_cast<std::size_t>(s)];
      for (std::size_t k = 0; k < local.size(); ++k) {
        (*logits_out)[static_cast<std::size_t>(ids[k])] = std::move(local[k]);
      }
    }
  }

  // Per-shard reports + optional online depth adaptation for the next run.
  reports_.clear();
  reports_.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    ShardReport rep;
    rep.shard = s;
    rep.pinned = pinned_[static_cast<std::size_t>(s)];
    rep.cpus = scfg_.pin_numa && static_cast<std::size_t>(s) < cpu_slices_.size()
                   ? static_cast<int>(cpu_slices_[static_cast<std::size_t>(s)].size())
                   : 0;
    if (engines_[static_cast<std::size_t>(s)] != nullptr) {
      const EngineStats& st = shard_stats[static_cast<std::size_t>(s)];
      rep.batches = st.batches;
      rep.nodes = st.nodes;
      rep.busy_seconds = st.forward_seconds;
      rep.stall_seconds = st.stage_breakdown.prepare.stall_seconds +
                          st.stage_breakdown.ship.stall_seconds +
                          st.stage_breakdown.compute.stall_seconds;
      rep.halo_nodes = st.halo_nodes;
      rep.halo_bytes = st.halo_bytes;
      rep.halo_wire_seconds = st.halo_wire_seconds;
      rep.exposed_halo_seconds = st.exposed_halo_seconds;
      rep.pipeline_depth = st.pipeline_depth;
      rep.stats = st;
      if (cfg_.mode.streaming()) {
        rep.suggested_depth = recommend_pipeline_depth(st.stage_breakdown,
                                                       st.pipeline_depth);
        if (scfg_.adapt_depth && rep.suggested_depth != st.pipeline_depth) {
          engines_[static_cast<std::size_t>(s)]->set_pipeline_depth(
              rep.suggested_depth);
          depth_override_[static_cast<std::size_t>(s)] = rep.suggested_depth;
        }
      }
    }
    reports_.push_back(std::move(rep));
  }

  // Deterministic merge: integer counters are order-independent sums over
  // shards (equal to the single-engine totals by the batch-subset
  // construction); the epoch wall time is the straggler shard's busy time
  // plus its un-overlapped halo bill.
  EngineStats merged;
  merged.shards = S;
  merged.streaming = cfg_.mode.streaming();
  for (int s = 0; s < S; ++s) {
    if (engines_[static_cast<std::size_t>(s)] == nullptr) continue;
    const EngineStats& st = shard_stats[static_cast<std::size_t>(s)];
    merged.forward_seconds =
        std::max(merged.forward_seconds,
                 st.forward_seconds + st.exposed_halo_seconds);
    merged.batches += st.batches;
    merged.nodes += st.nodes;
    merged.tiles_jumped += st.tiles_jumped;
    merged.bmma_ops += st.bmma_ops;
    merged.epilogue_fused_layers =
        std::max(merged.epilogue_fused_layers, st.epilogue_fused_layers);
    merged.int32_bytes_avoided += st.int32_bytes_avoided;
    merged.saturated += st.saturated;
    merged.packed_bytes += st.packed_bytes;
    merged.packed_transfer_seconds += st.packed_transfer_seconds;
    merged.adj_bytes += st.adj_bytes;
    merged.exposed_transfer_seconds += st.exposed_transfer_seconds;
    merged.peak_prepared_bytes += st.peak_prepared_bytes;  // live concurrently
    merged.staging_capacity_bytes += st.staging_capacity_bytes;
    merged.prepare_bytes_read += st.prepare_bytes_read;
    merged.cache_hits += st.cache_hits;
    merged.cache_misses += st.cache_misses;
    merged.cache_evictions += st.cache_evictions;
    merged.cache_resident_bytes += st.cache_resident_bytes;
    merged.halo_nodes += st.halo_nodes;
    merged.halo_bytes += st.halo_bytes;
    merged.halo_wire_seconds += st.halo_wire_seconds;
    merged.exposed_halo_seconds += st.exposed_halo_seconds;
    merged.stage_breakdown.prepare += st.stage_breakdown.prepare;
    merged.stage_breakdown.ship += st.stage_breakdown.ship;
    merged.stage_breakdown.compute += st.stage_breakdown.compute;
    merged.backend = st.backend;
    merged.inter_batch_threads = st.inter_batch_threads;
    merged.pipeline_depth = std::max(merged.pipeline_depth, st.pipeline_depth);
    merged.prepare_threads = std::max(merged.prepare_threads, st.prepare_threads);
  }
  merged.vm_hwm_bytes = vm_hwm_bytes();
  return merged;
}

ImbalanceReport ShardedEngine::imbalance() const {
  ImbalanceReport rep;
  if (reports_.empty()) return rep;
  double total_busy = 0.0, total_exposed = 0.0;
  for (const ShardReport& r : reports_) {
    // Empty shards count with zero busy time: an idle shard IS the
    // imbalance signal (the skewed-plan test's whole surface).
    if (r.busy_seconds > rep.max_busy) {
      rep.max_busy = r.busy_seconds;
      rep.straggler = r.shard;
    }
    total_busy += r.busy_seconds;
    total_exposed += r.exposed_halo_seconds;
  }
  rep.mean_busy = total_busy / static_cast<double>(reports_.size());
  rep.max_over_mean = rep.mean_busy > 0.0 ? rep.max_busy / rep.mean_busy : 1.0;
  const double denom = total_busy + total_exposed;
  rep.halo_stall_share = denom > 0.0 ? total_exposed / denom : 0.0;
  return rep;
}

bool ShardedEngine::rebalance() {
  if (reports_.empty()) return false;
  const int S = plan_.num_shards;

  // Decompose each shard's measured busy time into per-batch cost estimates
  // (node-proportional split of the measurement); empty shards price batches
  // at the global mean cost per node, so batches can move onto them.
  std::vector<i64> shard_nodes(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    for (const i64 gid : plan_.shard_batches[static_cast<std::size_t>(s)]) {
      shard_nodes[static_cast<std::size_t>(s)] +=
          global_batches_[static_cast<std::size_t>(gid)].size();
    }
  }
  double total_busy = 0.0;
  i64 total_nodes = 0;
  for (const ShardReport& r : reports_) {
    total_busy += r.busy_seconds;
    total_nodes += r.nodes;
  }
  if (total_busy <= 0.0 || total_nodes <= 0) return false;
  const double mean_cost_per_node =
      total_busy / static_cast<double>(total_nodes);

  std::vector<double> cost(global_batches_.size(), 0.0);
  std::vector<double> load(static_cast<std::size_t>(S), 0.0);
  for (int s = 0; s < S; ++s) {
    const double per_node =
        shard_nodes[static_cast<std::size_t>(s)] > 0
            ? reports_[static_cast<std::size_t>(s)].busy_seconds /
                  static_cast<double>(shard_nodes[static_cast<std::size_t>(s)])
            : mean_cost_per_node;
    for (const i64 gid : plan_.shard_batches[static_cast<std::size_t>(s)]) {
      cost[static_cast<std::size_t>(gid)] =
          per_node *
          static_cast<double>(global_batches_[static_cast<std::size_t>(gid)].size());
      load[static_cast<std::size_t>(s)] += cost[static_cast<std::size_t>(gid)];
    }
  }

  ShardPlan next = plan_;
  bool moved = false;
  for (;;) {
    const auto max_it = std::max_element(load.begin(), load.end());
    const auto min_it = std::min_element(load.begin(), load.end());
    const int from = static_cast<int>(max_it - load.begin());
    const int to = static_cast<int>(min_it - load.begin());
    if (from == to) break;
    std::vector<i64>& donor = next.shard_batches[static_cast<std::size_t>(from)];
    if (donor.size() <= 1) break;  // never empty a shard below one batch
    // Cheapest batch on the straggler: the smallest move that can help.
    std::size_t pick = 0;
    for (std::size_t k = 1; k < donor.size(); ++k) {
      if (cost[static_cast<std::size_t>(donor[k])] <
          cost[static_cast<std::size_t>(donor[pick])]) {
        pick = k;
      }
    }
    const i64 gid = donor[pick];
    const double c = cost[static_cast<std::size_t>(gid)];
    const double new_max =
        std::max(*max_it - c, *min_it + c);  // other shards unchanged, < *max_it
    if (new_max >= *max_it) break;           // no improving move left
    donor.erase(donor.begin() + static_cast<std::ptrdiff_t>(pick));
    next.shard_batches[static_cast<std::size_t>(to)].push_back(gid);
    std::sort(next.shard_batches[static_cast<std::size_t>(to)].begin(),
              next.shard_batches[static_cast<std::size_t>(to)].end());
    next.batch_shard[static_cast<std::size_t>(gid)] = to;
    load[static_cast<std::size_t>(from)] -= c;
    load[static_cast<std::size_t>(to)] += c;
    moved = true;
  }
  if (!moved) return false;
  set_plan(std::move(next));
  return true;
}

}  // namespace qgtc::core
