// Sparse connectivity machinery (flows/connectivity.hpp): differential
// tests against a local dense-residual reference (the algorithm the seed
// used before the sparse rewrite).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flows/connectivity.hpp"
#include "flows/graph.hpp"
#include "util/rng.hpp"

namespace ren::flows {
namespace {

// --- Dense reference ---------------------------------------------------------
// The seed's unit-capacity max-flow: BFS augmentation over a flat n x n
// residual matrix. Kept here (and only here) as the differential oracle.

int dense_max_flow(const Graph& g, int s, int t) {
  const int n = g.n();
  std::vector<std::int16_t> cap(static_cast<std::size_t>(n) * n, 0);
  for (int u = 0; u < n; ++u) {
    for (int v : g.neighbors(u)) cap[static_cast<std::size_t>(u) * n + v] = 1;
  }
  int flow = 0;
  std::vector<int> parent(static_cast<std::size_t>(n));
  while (true) {
    std::fill(parent.begin(), parent.end(), -1);
    parent[static_cast<std::size_t>(s)] = s;
    std::vector<int> queue{s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      for (int v = 0; v < n; ++v) {
        if (parent[static_cast<std::size_t>(v)] == -1 &&
            cap[static_cast<std::size_t>(u) * n + v] > 0) {
          parent[static_cast<std::size_t>(v)] = u;
          queue.push_back(v);
        }
      }
    }
    if (parent[static_cast<std::size_t>(t)] == -1) return flow;
    for (int v = t; v != s; v = parent[static_cast<std::size_t>(v)]) {
      const int u = parent[static_cast<std::size_t>(v)];
      cap[static_cast<std::size_t>(u) * n + v] -= 1;
      cap[static_cast<std::size_t>(v) * n + u] += 1;
    }
    ++flow;
  }
}

int dense_edge_connectivity(const Graph& g) {
  if (g.n() < 2 || !g.connected()) return 0;
  int best = g.n();
  for (int t = 1; t < g.n(); ++t) best = std::min(best, dense_max_flow(g, 0, t));
  return best;
}

/// Random connected-ish graph: a spanning path plus extra random edges.
Graph random_graph(Rng& rng, int n, int extra_edges) {
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(v - 1, v);
  for (int i = 0; i < extra_edges; ++i) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  return g;
}

// --- SparseMaxFlow -------------------------------------------------------------

TEST(SparseMaxFlow, MatchesDenseOnRandomGraphs) {
  Rng rng(0x5eed);
  for (int round = 0; round < 60; ++round) {
    const int n = 4 + static_cast<int>(rng.next_below(30));
    Graph g = random_graph(rng, n, n * 2);
    SparseMaxFlow flow(g);
    for (int pair = 0; pair < 8; ++pair) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (s == t) t = (t + 1) % n;
      EXPECT_EQ(flow.run(s, t, n), dense_max_flow(g, s, t))
          << "round " << round << " pair " << s << "->" << t;
    }
  }
}

TEST(SparseMaxFlow, CapLimitTruncatesExactly) {
  Rng rng(7);
  Graph g = random_graph(rng, 24, 60);
  SparseMaxFlow flow(g);
  const int full = flow.run(0, 23, 24);
  for (int cap = 0; cap <= full + 2; ++cap) {
    EXPECT_EQ(flow.run(0, 23, cap), std::min(cap, full));
  }
}

TEST(SparseMaxFlow, ReassignReusesBuffers) {
  SparseMaxFlow flow;
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    Graph g = random_graph(rng, 10 + round, 20);
    flow.assign(g);
    EXPECT_EQ(flow.n(), g.n());
    EXPECT_EQ(flow.run(0, g.n() - 1, g.n()), dense_max_flow(g, 0, g.n() - 1));
  }
}

// --- Graph methods on the sparse path ------------------------------------------

TEST(GraphConnectivity, EdgeConnectivityMatchesDense) {
  Rng rng(0xc0ffee);
  for (int round = 0; round < 40; ++round) {
    const int n = 3 + static_cast<int>(rng.next_below(20));
    const Graph g = random_graph(rng, n, static_cast<int>(rng.next_below(40)));
    EXPECT_EQ(g.edge_connectivity(), dense_edge_connectivity(g))
        << "round " << round;
  }
}

TEST(GraphConnectivity, DisconnectedGraphIsZero) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(g.edge_connectivity(), 0);
  EXPECT_EQ(SparseMaxFlow(g).run(0, 2, g.n()), 0);
}

}  // namespace
}  // namespace ren::flows
