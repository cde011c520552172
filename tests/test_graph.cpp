#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flows/graph.hpp"
#include "flows/resilient_paths.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ren::flows {
namespace {

using ren::testing::flat_of;

Graph cycle(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

TEST(Graph, BasicEdgeOps) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // idempotent
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 9));  // out of range
  EXPECT_EQ(g.edge_count(), 1u);
  g.add_edge(3, 0);
  g.add_edge(2, 0);
  EXPECT_EQ(g.neighbors(0), (std::vector<int>{1, 2, 3}));  // kept sorted
  EXPECT_EQ(g.edge_count(), 3u);
  g.add_edge(5, 4);  // grows the graph
  EXPECT_EQ(g.n(), 6);
  EXPECT_TRUE(g.has_edge(4, 5));
}

// The graph algorithms run on a FlatView snapshot of the Graph.

TEST(Graph, BfsDistances) {
  const auto d = flat_of(cycle(6)).distances(0);
  EXPECT_EQ(d, (std::vector<int>{0, 1, 2, 3, 2, 1}));
  Graph apart(3);
  apart.add_edge(0, 1);
  EXPECT_EQ(flat_of(apart).distances(1), (std::vector<int>{1, 0, -1}));
}

TEST(Graph, DiameterOfKnownGraphs) {
  EXPECT_EQ(flat_of(cycle(6)).diameter(), 3);
  EXPECT_EQ(flat_of(cycle(7)).diameter(), 3);
  Graph path(5);
  for (int i = 0; i + 1 < 5; ++i) path.add_edge(i, i + 1);
  EXPECT_EQ(flat_of(path).diameter(), 4);
  EXPECT_EQ(flat_of(Graph{}).diameter(), 0);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  std::vector<NodeId> reached;
  flat_of(g).reachable_from(0, reached);
  EXPECT_EQ(reached, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(flat_of(g).edge_connectivity(), 0);
  g.add_edge(1, 2);
  reached.clear();
  flat_of(g).reachable_from(0, reached);
  EXPECT_EQ(reached, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(flat_of(g).edge_connectivity(), 1);
}

TEST(Graph, EdgeConnectivity) {
  EXPECT_EQ(flat_of(cycle(5)).edge_connectivity(), 2);
  Graph path(4);
  for (int i = 0; i < 3; ++i) path.add_edge(i, i + 1);
  EXPECT_EQ(flat_of(path).edge_connectivity(), 1);
  Graph k4(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.add_edge(i, j);
  }
  EXPECT_EQ(flat_of(k4).edge_connectivity(), 3);
  EXPECT_EQ(flat_of(Graph(1)).edge_connectivity(), 0);
}

TEST(Graph, EdgeDisjointPathCount) {
  Graph g = cycle(6);
  EXPECT_EQ(flat_of(g).max_flow(0, 3, g.n()), 2);
  g.add_edge(0, 3);
  EXPECT_EQ(flat_of(g).max_flow(0, 3, g.n()), 3);
  EXPECT_EQ(flat_of(g).max_flow(3, 3, g.n()), 0);
}

TEST(TopoView, DirectedEdgeSemantics) {
  TopoView v;
  v.add_edge(1, 2);
  EXPECT_TRUE(v.has_edge(1, 2));
  EXPECT_FALSE(v.has_edge(2, 1));  // directed evidence
  EXPECT_TRUE(v.has_node(2));     // claimed neighbor becomes a node
  v.add_sym_edge(3, 4);
  EXPECT_TRUE(v.has_edge(3, 4));
  EXPECT_TRUE(v.has_edge(4, 3));
}

TEST(TopoView, ReachabilityFollowsDirection) {
  TopoView v;
  v.add_edge(1, 2);
  v.add_edge(2, 3);
  EXPECT_EQ(v.reachable_set(1), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(v.reachable_set(3), (std::vector<NodeId>{3}));
}

TEST(TopoView, FingerprintSensitivity) {
  TopoView a, b;
  a.add_sym_edge(1, 2);
  b.add_sym_edge(1, 2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_TRUE(a == b);
  b.add_edge(2, 3);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_FALSE(a == b);
}

TEST(TopoView, KindsSurviveEdgesAndDecideRelays) {
  TopoView v;
  v.add_edge(1, 2);  // both endpoints join with unknown kind
  EXPECT_FALSE(v.kind(1).has_value());
  EXPECT_FALSE(v.kind(2).has_value());
  EXPECT_TRUE(v.relays(1));  // unknown nodes relay, as switches do
  v.set_kind(1, NodeKind::Controller);
  v.set_kind(2, NodeKind::Switch);
  v.add_edge(2, 1);  // adding edges keeps known kinds
  v.add_edge(1, 3);
  EXPECT_EQ(v.kind(1), NodeKind::Controller);
  EXPECT_EQ(v.kind(2), NodeKind::Switch);
  EXPECT_FALSE(v.relays(1));
  EXPECT_TRUE(v.relays(2));
  EXPECT_TRUE(v.relays(3));
  EXPECT_FALSE(v.kind(9).has_value());  // not a node
  EXPECT_FALSE(v.has_node(9));
  v.set_kind(4, NodeKind::Switch);  // set_kind adds the node
  EXPECT_TRUE(v.has_node(4));
  EXPECT_EQ(v.edge_count(), 3u);
}

TEST(TopoView, SameGraphIgnoresKindsEqualityDoesNot) {
  TopoView a, b;
  a.add_sym_edge(1, 2);
  b.add_sym_edge(1, 2);
  b.set_kind(2, NodeKind::Switch);
  EXPECT_TRUE(same_graph(a, b));
  EXPECT_FALSE(a == b);
  // An unknown node and a switch both relay: the fingerprint is alike.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.set_kind(1, NodeKind::Controller);
  EXPECT_TRUE(same_graph(a, b));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  a.set_kind(1, NodeKind::Controller);
  a.set_kind(2, NodeKind::Switch);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Graph differences count for both.
  b.add_edge(2, 3);
  EXPECT_FALSE(same_graph(a, b));
  EXPECT_FALSE(a == b);
  a.add_node(3);
  EXPECT_FALSE(same_graph(a, b));  // same nodes, one edge fewer
  a.add_edge(2, 3);
  EXPECT_TRUE(same_graph(a, b));
  TopoView c = a;
  c.add_node(7);
  EXPECT_FALSE(same_graph(a, c));
  EXPECT_FALSE(same_graph(c, a));
}

TEST(LiveTopology, StampsNodeKinds) {
  sim::Experiment exp(ren::testing::fast_config("B4", 3));
  std::vector<NodeId> ids;
  for (const auto* c : exp.controllers()) ids.push_back(c->id());
  for (const auto* s : exp.switches()) ids.push_back(s->id());
  const TopoView truth = live_topology(exp.sim(), ids);
  ASSERT_EQ(truth.node_count(), ids.size());
  for (const auto* c : exp.controllers()) {
    EXPECT_EQ(truth.kind(c->id()), NodeKind::Controller);
    EXPECT_FALSE(truth.relays(c->id()));
  }
  for (const auto* s : exp.switches()) {
    EXPECT_EQ(truth.kind(s->id()), NodeKind::Switch);
    EXPECT_TRUE(truth.relays(s->id()));
  }
  // The monitor's truth and the fault guards' topology are the same view.
  EXPECT_TRUE(exp.monitor().true_view() == truth);
  auto cp = exp.control_plane();
  EXPECT_TRUE(faults::control_topology(cp) == truth);
  // A dead switch leaves the topology, kind and all.
  const NodeId victim = exp.switches().front()->id();
  faults::kill_node(cp, victim);
  const TopoView after = faults::control_topology(cp);
  EXPECT_FALSE(after.has_node(victim));
  EXPECT_EQ(after.node_count(), truth.node_count() - 1);
  for (const auto& [n, node] : after.nodes()) {
    EXPECT_EQ(node.kind, truth.kind(n)) << "node " << n;
  }
}

TEST(TopoView, CorruptClaimCannotFabricatePathsIntoRealNodes) {
  // The property that makes recovery from state corruption work: a
  // corrupted reply (node 9 claiming edges to everything) does not create
  // paths *into* 9 or make other nodes reachable through it from a node
  // that has only truthful evidence.
  TopoView v;
  v.add_edge(1, 2);  // truthful: 1 claims 2
  v.add_edge(9, 1);  // corrupt: 9 claims 1
  v.add_edge(9, 7);  // corrupt: 9 claims ghost 7
  EXPECT_EQ(v.reachable_set(1), (std::vector<NodeId>{1, 2}));  // no 9, no 7
  // Corruption only helps the corrupt node.
  EXPECT_EQ(v.reachable_set(9), (std::vector<NodeId>{9, 1, 7, 2}));
}

// --- ConnectivityProbe --------------------------------------------------------
// Differential against the definition the probe replaced: copy the view
// without node `x` and without edge {a, b} (both directions), then run
// reachable_set from the smallest remaining id; nothing remaining counts as
// connected. kNoNode removes nothing.

bool copy_connected(const TopoView& view, NodeId x, NodeId a, NodeId b) {
  TopoView copy;
  for (const auto& [n, node] : view.nodes()) {
    if (n == x) continue;
    copy.add_node(n);
    for (NodeId v : node.out) {
      if (v == x || (n == a && v == b) || (n == b && v == a)) continue;
      copy.add_edge(n, v);
    }
  }
  return copy.node_count() == 0 ||
         copy.reachable_set(copy.nodes().begin()->first).size() ==
             copy.node_count();
}

/// Every node and every edge of `view` removed in turn, plus ids and edges
/// the view does not have.
void expect_probe_matches_copy(const TopoView& view, NodeId absent) {
  ConnectivityProbe probe(view);
  EXPECT_EQ(probe.empty(), view.node_count() == 0);
  for (const auto& [n, node] : view.nodes()) {
    EXPECT_EQ(probe.connected_without_node(n),
              copy_connected(view, n, kNoNode, kNoNode))
        << "without node " << n;
    for (NodeId v : node.out) {
      EXPECT_EQ(probe.connected_without_edge(n, v),
                copy_connected(view, kNoNode, n, v))
          << "without edge " << n << "-" << v;
    }
  }
  EXPECT_EQ(probe.connected_without_node(absent),
            copy_connected(view, absent, kNoNode, kNoNode));
  for (const auto& [n, _] : view.nodes()) {
    EXPECT_EQ(probe.connected_without_edge(n, absent),
              copy_connected(view, kNoNode, n, absent));
    for (const auto& [m, __] : view.nodes()) {
      EXPECT_EQ(probe.connected_without_edge(n, m),
                copy_connected(view, kNoNode, n, m))
          << "without pair " << n << "-" << m;
    }
  }
}

TEST(ConnectivityProbe, MatchesCopyAndBfsOnTinyViews) {
  expect_probe_matches_copy(TopoView{}, 3);
  TopoView one;
  one.add_node(5);
  expect_probe_matches_copy(one, 4);
  TopoView two_apart;
  two_apart.add_node(1);
  two_apart.add_node(2);
  expect_probe_matches_copy(two_apart, 0);
  TopoView two_linked;
  two_linked.add_sym_edge(1, 2);
  expect_probe_matches_copy(two_linked, 3);
  TopoView two_one_way;
  two_one_way.add_edge(2, 1);
  expect_probe_matches_copy(two_one_way, 7);
  TopoView path;  // 2 is a cut node, both edges are bridges
  path.add_sym_edge(1, 2);
  path.add_sym_edge(2, 3);
  expect_probe_matches_copy(path, 0);
  EXPECT_FALSE(ConnectivityProbe(path).connected_without_node(2));
  EXPECT_FALSE(ConnectivityProbe(path).connected_without_edge(3, 2));
}

TEST(ConnectivityProbe, MatchesCopyAndBfsOnRandomViews) {
  Rng rng(0x9e0be);
  int connected = 0, disconnected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_below(14));
    // Sparse ids exercise FlatView's non-dense index path too.
    const NodeId stride = trial % 3 == 0 ? 7919 : 1;
    const bool symmetric = trial % 4 != 0;  // live topologies are symmetric
    const std::uint64_t edges =
        n == 0 ? 0 : rng.next_below(static_cast<std::uint64_t>(2 * n + 1));
    TopoView view;
    for (NodeId i = 0; i < n; ++i) view.add_node(i * stride);
    for (std::uint64_t e = 0; e < edges; ++e) {
      const NodeId a = static_cast<NodeId>(rng.next_below(n)) * stride;
      const NodeId b = static_cast<NodeId>(rng.next_below(n)) * stride;
      if (a == b) continue;
      if (symmetric) {
        view.add_sym_edge(a, b);
      } else {
        view.add_edge(a, b);
      }
    }
    const bool whole = view.node_count() == 0 ||
                       view.reachable_set(view.nodes().begin()->first).size() ==
                           view.node_count();
    ++(whole ? connected : disconnected);
    expect_probe_matches_copy(view, n * stride + 1);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
  // Both kinds of view were drawn.
  EXPECT_GT(connected, 30);
  EXPECT_GT(disconnected, 30);
}

TEST(RuleWalk, DeliversAlongOracle) {
  // Line graph 0-1-2-3; oracle forwards toward 3.
  auto next = [](NodeId at, NodeId, NodeId) -> std::optional<NodeId> {
    return at + 1;
  };
  auto up = [](NodeId, NodeId) { return true; };
  const auto r = rule_walk(0, 3, {1}, next, up, 10);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(RuleWalk, TtlCutsLoops) {
  auto next = [](NodeId at, NodeId, NodeId) -> std::optional<NodeId> {
    return at == 1 ? 2 : 1;  // 1 <-> 2 forever
  };
  auto up = [](NodeId, NodeId) { return true; };
  const auto r = rule_walk(0, 9, {1}, next, up, 20);
  EXPECT_FALSE(r.delivered);
  EXPECT_TRUE(r.ttl_exceeded);
}

TEST(RuleWalk, DropsWhenNoFirstHopIsUp) {
  auto next = [](NodeId, NodeId, NodeId) -> std::optional<NodeId> {
    return std::nullopt;
  };
  auto up = [](NodeId, NodeId) { return false; };
  const auto r = rule_walk(0, 3, {1, 2}, next, up, 10);
  EXPECT_FALSE(r.delivered);
  EXPECT_FALSE(r.ttl_exceeded);
}

}  // namespace
}  // namespace ren::flows
