// Max-flow and edge connectivity on FlatView (flows/graph.hpp):
// differential tests against a local dense-residual reference (the
// algorithm the seed used before the sparse rewrite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "flows/graph.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ren::flows {
namespace {

using ren::testing::flat_of;

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

/// Whether every node is reachable from node 0, by growing the reached set
/// over the n x n adjacency matrix until it stops changing.
bool dense_connected(const Graph& g) {
  const int n = g.n();
  std::vector<char> adj(static_cast<std::size_t>(n) * n, 0);
  for (int u = 0; u < n; ++u) {
    for (int v : g.neighbors(u)) adj[static_cast<std::size_t>(u) * n + v] = 1;
  }
  std::vector<char> reached(static_cast<std::size_t>(n), 0);
  reached[0] = 1;
  for (bool grew = true; grew;) {
    grew = false;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (reached[static_cast<std::size_t>(u)] &&
            !reached[static_cast<std::size_t>(v)] &&
            adj[static_cast<std::size_t>(u) * n + v]) {
          reached[static_cast<std::size_t>(v)] = 1;
          grew = true;
        }
      }
    }
  }
  return std::find(reached.begin(), reached.end(), 0) == reached.end();
}

int dense_edge_connectivity(const Graph& g) {
  if (g.n() < 2 || !dense_connected(g)) return 0;
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

/// `g` as a symmetric TopoView with gapped ids (id of node i:
/// stride * i + 5), which is how the legitimacy monitor hands λ a live
/// fabric whose dead nodes left holes in the id range.
TopoView gapped_view(const Graph& g, NodeId stride) {
  TopoView view;
  for (int u = 0; u < g.n(); ++u) {
    view.add_node(stride * u + 5);
    for (int v : g.neighbors(u)) view.add_edge(stride * u + 5, stride * v + 5);
  }
  return view;
}

// --- FlatView::max_flow ------------------------------------------------------

TEST(FlatView, MaxFlowMatchesDenseOnRandomGraphs) {
  Rng rng(0x5eed);
  for (int round = 0; round < 60; ++round) {
    const int n = 4 + static_cast<int>(rng.next_below(30));
    Graph g = random_graph(rng, n, n * 2);
    FlatView flat = flat_of(g);
    for (int pair = 0; pair < 8; ++pair) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (s == t) t = (t + 1) % n;
      EXPECT_EQ(flat.max_flow(s, t, n), dense_max_flow(g, s, t))
          << "round " << round << " pair " << s << "->" << t;
    }
  }
}

TEST(FlatView, MaxFlowCapLimitTruncatesExactly) {
  Rng rng(7);
  Graph g = random_graph(rng, 24, 60);
  FlatView flat = flat_of(g);
  const int full = flat.max_flow(0, 23, 24);
  for (int cap = 0; cap <= full + 2; ++cap) {
    EXPECT_EQ(flat.max_flow(0, 23, cap), std::min(cap, full));
  }
}

TEST(FlatView, MaxFlowReusesACancelledEdge) {
  // Augmenting paths from 4 to 6: 4-2-1-6, then 4-3-1-2-5-6, whose 1 -> 2
  // cancels the first path's unit on {1, 2}, then 4-9-1-2-8-6, which needs
  // 1 -> 2 again. Blocking a used arc without freeing its reverse finds 2.
  Graph g(10);
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0, 2}, {1, 2}, {1, 3}, {1, 6}, {1, 9}, {2, 4}, {2, 5}, {2, 8},
           {3, 4}, {3, 9}, {4, 9}, {5, 6}, {5, 7}, {5, 8}, {6, 8}}) {
    g.add_edge(a, b);
  }
  EXPECT_EQ(dense_max_flow(g, 4, 6), 3);
  EXPECT_EQ(flat_of(g).max_flow(4, 6, g.n()), 3);
}

TEST(FlatView, MaxFlowReassignReusesBuffers) {
  // One FlatView, re-assigned from Graphs and views of changing sizes, with
  // path searches over blocked edges in between.
  FlatView flat;
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    Graph g = random_graph(rng, 10 + round, 20);
    if (round % 2 == 0) {
      flat.assign(g);
    } else {
      flat.assign(gapped_view(g, 3));
    }
    EXPECT_EQ(flat.n(), g.n());
    flat.clear_blocked();
    flat.block_both(0, g.neighbors(0).front());
    (void)flat.search(0, g.n() - 1, std::vector<std::uint8_t>(g.n(), 1));
    EXPECT_EQ(flat.max_flow(0, g.n() - 1, g.n()),
              dense_max_flow(g, 0, g.n() - 1));
  }
}

// --- FlatView::edge_connectivity ---------------------------------------------

TEST(GraphConnectivity, EdgeConnectivityMatchesDense) {
  Rng rng(0xc0ffee);
  FlatView flat;
  for (int round = 0; round < 40; ++round) {
    const int n = 3 + static_cast<int>(rng.next_below(20));
    const Graph g = random_graph(rng, n, static_cast<int>(rng.next_below(40)));
    const int dense = dense_edge_connectivity(g);
    flat.assign(g);
    EXPECT_EQ(flat.edge_connectivity(), dense) << "round " << round;
    // The monitor's path: a view whose ids have gaps; a large stride also
    // takes FlatView's non-dense id lookup.
    flat.assign(gapped_view(g, round % 2 == 0 ? 3 : 7919));
    EXPECT_EQ(flat.edge_connectivity(), dense) << "round " << round << " view";
  }
}

TEST(GraphConnectivity, DisconnectedGraphIsZero) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(flat_of(g).edge_connectivity(), 0);
  EXPECT_EQ(flat_of(g).max_flow(0, 2, g.n()), 0);
}

}  // namespace
}  // namespace ren::flows
