#include <gtest/gtest.h>

#include "flows/graph.hpp"
#include "flows/resilient_paths.hpp"

namespace ren::flows {
namespace {

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
  EXPECT_EQ(g.edge_count(), 1u);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, BfsDistances) {
  Graph g = cycle(6);
  const auto d = g.bfs_dist(0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[3], 3);
  EXPECT_EQ(d[5], 1);
}

TEST(Graph, DiameterOfKnownGraphs) {
  EXPECT_EQ(cycle(6).diameter(), 3);
  EXPECT_EQ(cycle(7).diameter(), 3);
  Graph path(5);
  for (int i = 0; i + 1 < 5; ++i) path.add_edge(i, i + 1);
  EXPECT_EQ(path.diameter(), 4);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, EdgeConnectivity) {
  EXPECT_EQ(cycle(5).edge_connectivity(), 2);
  Graph path(4);
  for (int i = 0; i < 3; ++i) path.add_edge(i, i + 1);
  EXPECT_EQ(path.edge_connectivity(), 1);
  Graph k4(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.add_edge(i, j);
  }
  EXPECT_EQ(k4.edge_connectivity(), 3);
}

TEST(Graph, EdgeDisjointPathCount) {
  Graph g = cycle(6);
  EXPECT_EQ(g.edge_disjoint_path_count(0, 3), 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.edge_disjoint_path_count(0, 3), 3);
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
  EXPECT_TRUE(v.reachable(1, 3));
  EXPECT_FALSE(v.reachable(3, 1));
  const auto r = v.reachable_set(1);
  EXPECT_EQ(r.size(), 3u);
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

TEST(TopoView, CorruptClaimCannotFabricatePathsIntoRealNodes) {
  // The property that makes recovery from state corruption work: a
  // corrupted reply (node 9 claiming edges to everything) does not create
  // paths *into* 9 or make other nodes reachable through it from a node
  // that has only truthful evidence.
  TopoView v;
  v.add_edge(1, 2);  // truthful: 1 claims 2
  v.add_edge(9, 1);  // corrupt: 9 claims 1
  v.add_edge(9, 7);  // corrupt: 9 claims ghost 7
  EXPECT_FALSE(v.reachable(1, 9));
  EXPECT_FALSE(v.reachable(1, 7));
  EXPECT_TRUE(v.reachable(9, 2));  // corruption only helps the corrupt node
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
