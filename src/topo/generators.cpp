#include "topo/generators.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ren::topo {

Topology make_fat_tree(int k) {
  if (k < 4 || k > 64 || k % 2 != 0) {
    throw std::invalid_argument("fat_tree: k must be even and in [4, 64], got " +
                                std::to_string(k));
  }
  const int half = k / 2;
  const int edges_total = k * half;       // k pods x k/2 edge switches
  const int aggs_base = edges_total;      // aggregation ids follow edges
  const int cores_base = 2 * edges_total; // core ids follow aggregation
  const int cores_total = half * half;
  flows::Graph g(cores_base + cores_total);
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      const int edge_sw = pod * half + e;
      // Full bipartite edge <-> aggregation mesh inside the pod.
      for (int a = 0; a < half; ++a) {
        g.add_edge(edge_sw, aggs_base + pod * half + a);
      }
    }
    // Aggregation switch a of every pod uplinks to core group a: cores
    // [a*k/2, (a+1)*k/2). Two pods always share all core groups, so any
    // edge-to-edge route is edge-agg-core-agg-edge: diameter 4.
    for (int a = 0; a < half; ++a) {
      const int agg_sw = aggs_base + pod * half + a;
      for (int c = 0; c < half; ++c) {
        g.add_edge(agg_sw, cores_base + a * half + c);
      }
    }
  }
  return Topology{"fat_tree(k=" + std::to_string(k) + ")", std::move(g), 4};
}

Topology make_random_wan(int nodes, int m, std::uint64_t seed) {
  if (m < 2) throw std::invalid_argument("random_wan: m must be >= 2");
  if (nodes < m + 1) {
    throw std::invalid_argument("random_wan: nodes must be >= m + 1");
  }
  Rng rng(seed);
  flows::Graph g(nodes);
  // Degree-proportional sampling pool: every edge appends both endpoints, so
  // a node's multiplicity equals its degree (classic Barabasi-Albert).
  std::vector<int> pool;
  pool.reserve(static_cast<std::size_t>(2 * m) *
               static_cast<std::size_t>(nodes));
  auto link = [&](int a, int b) {
    g.add_edge(a, b);
    pool.push_back(a);
    pool.push_back(b);
  };
  // Seed cycle of m+1 nodes: 2-edge-connected base, every later node joins
  // with m >= 2 distinct attachments, which keeps every new edge on a cycle.
  const int base = m + 1;
  for (int i = 0; i < base; ++i) link(i, (i + 1) % base);
  std::vector<int> targets;
  for (int v = base; v < nodes; ++v) {
    targets.clear();
    while (static_cast<int>(targets.size()) < m) {
      const int u = pool[rng.next_below(pool.size())];
      bool dup = false;
      for (int t : targets) dup = dup || (t == u);
      if (!dup) targets.push_back(u);
    }
    for (int u : targets) link(v, u);
  }
  flows::FlatView flat;
  flat.assign(g);
  const int diameter = flat.diameter();
  return Topology{"random_wan(nodes=" + std::to_string(nodes) +
                      ",m=" + std::to_string(m) +
                      ",seed=" + std::to_string(seed) + ")",
                  std::move(g), diameter};
}

}  // namespace ren::topo
