#include "parallel/affinity.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace qgtc::affinity {

std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    const std::string tok = list.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;
    const std::size_t dash = tok.find('-');
    char* rest = nullptr;
    if (dash == std::string::npos) {
      const long v = std::strtol(tok.c_str(), &rest, 10);
      if (rest != tok.c_str() && v >= 0) cpus.push_back(static_cast<int>(v));
    } else {
      // Named strings: `rest` must not point into a destroyed temporary.
      const std::string lo_str = tok.substr(0, dash);
      const std::string hi_str = tok.substr(dash + 1);
      const long lo = std::strtol(lo_str.c_str(), &rest, 10);
      const bool lo_ok = rest != nullptr && *rest == '\0';
      const long hi = std::strtol(hi_str.c_str(), &rest, 10);
      const bool hi_ok = rest != nullptr && *rest == '\0';
      if (lo_ok && hi_ok && lo >= 0 && hi >= lo) {
        for (long v = lo; v <= hi; ++v) cpus.push_back(static_cast<int>(v));
      }
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

namespace {

/// The single-node fallback: every CPU this process can see, on node 0.
Topology fallback_topology() {
  Topology topo;
  topo.from_sysfs = false;
  NumaNode node;
  node.id = 0;
  node.cpus = current_thread_cpus();
  if (node.cpus.empty()) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < hw; ++c) node.cpus.push_back(static_cast<int>(c));
  }
  topo.nodes.push_back(std::move(node));
  return topo;
}

}  // namespace

Topology detect_topology(const std::string& sysfs_root) {
  Topology topo;
  topo.from_sysfs = true;
  // Node ids are contiguous on every Linux we care about; a gap ends the
  // scan, and an empty scan means "no sysfs topology here" — fall back.
  for (int n = 0;; ++n) {
    std::ifstream in(sysfs_root + "/node" + std::to_string(n) + "/cpulist");
    if (!in) break;
    std::string list;
    std::getline(in, list);
    NumaNode node;
    node.id = n;
    node.cpus = parse_cpulist(list);
    if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
  }
  if (topo.nodes.empty()) return fallback_topology();
  return topo;
}

std::vector<int> current_thread_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
#else
  return {};
#endif
}

bool pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  if (CPU_COUNT(&set) == 0) return false;
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  return false;
#endif
}

std::vector<std::vector<int>> shard_cpu_slices(const Topology& topo,
                                               int shards) {
  QGTC_CHECK(shards >= 1, "shard count must be >= 1");
  std::vector<std::vector<int>> slices(static_cast<std::size_t>(shards));
  const int nodes = topo.num_nodes();
  if (nodes == 0) {
    // Degenerate topology: every shard gets an empty slice (pin no-ops).
    return slices;
  }
  if (nodes > 1) {
    // One shard per socket; extra shards wrap around (documented
    // oversubscription — still the right memory locality).
    for (int s = 0; s < shards; ++s) {
      slices[static_cast<std::size_t>(s)] =
          topo.nodes[static_cast<std::size_t>(s % nodes)].cpus;
    }
    return slices;
  }
  // Single node: contiguous slices, so sibling shards' worker teams do not
  // migrate across each other's caches. shards > cpus wraps round-robin.
  const std::vector<int>& cpus = topo.nodes[0].cpus;
  const int n = static_cast<int>(cpus.size());
  if (shards >= n) {
    for (int s = 0; s < shards; ++s) {
      slices[static_cast<std::size_t>(s)].push_back(cpus[static_cast<std::size_t>(s % n)]);
    }
    return slices;
  }
  const int base = n / shards;
  const int extra = n % shards;
  int cursor = 0;
  for (int s = 0; s < shards; ++s) {
    const int take = base + (s < extra ? 1 : 0);
    for (int i = 0; i < take; ++i) {
      slices[static_cast<std::size_t>(s)].push_back(cpus[static_cast<std::size_t>(cursor++)]);
    }
  }
  return slices;
}

}  // namespace qgtc::affinity
