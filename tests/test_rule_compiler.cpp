#include <gtest/gtest.h>

#include <set>

#include "flows/my_rules.hpp"
#include "topo/source.hpp"
#include "topo/topologies.hpp"
#include "util/rng.hpp"

namespace ren::flows {
namespace {

/// View of a physical topology plus an attached controller, every node's
/// kind known.
struct Scenario {
  TopoView view;
  NodeId owner;
};

Scenario diamond() {
  //   1
  //  /.\.
  // 0   3 --- owner(4) attached at 0 and 3
  //  \ /
  //   2
  Scenario s;
  s.owner = 4;
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 3}, {2, 3}, {4, 0}, {4, 3}}) {
    s.view.add_sym_edge(a, b);
  }
  for (NodeId n : {0, 1, 2, 3}) s.view.set_kind(n, NodeKind::Switch);
  s.view.set_kind(4, NodeKind::Controller);
  return s;
}

Scenario from_topology(const topo::Topology& t, NodeId attach_a, NodeId attach_b) {
  Scenario s;
  s.owner = t.switch_graph.n();
  for (int u = 0; u < t.switch_graph.n(); ++u) {
    s.view.set_kind(u, NodeKind::Switch);
    for (int v : t.switch_graph.neighbors(u)) s.view.add_sym_edge(u, v);
  }
  s.view.add_sym_edge(s.owner, attach_a);
  s.view.add_sym_edge(s.owner, attach_b);
  s.view.set_kind(s.owner, NodeKind::Controller);
  return s;
}

TEST(DisjointViewPaths, PairwiseEdgeDisjointAndSimple) {
  const auto s = diamond();
  const auto paths = disjoint_view_paths(s.view, 4, 3, 3);
  ASSERT_EQ(paths.size(), 2u);  // direct 4-3 and 4-0-...-3
  EXPECT_EQ(paths[0], (std::vector<NodeId>{4, 3}));
  std::set<std::pair<NodeId, NodeId>> used;
  for (const auto& p : paths) {
    std::set<NodeId> nodes;
    for (NodeId n : p) EXPECT_TRUE(nodes.insert(n).second) << "not simple";
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(used.insert({p[i], p[i + 1]}).second);
      EXPECT_TRUE(used.insert({p[i + 1], p[i]}).second);
    }
  }
}

TEST(DisjointViewPaths, InteriorsAreTransitOnly) {
  auto s = diamond();
  s.view.add_sym_edge(5, 1);  // another controller hanging off switch 1
  s.view.add_sym_edge(5, 3);
  s.view.set_kind(5, NodeKind::Controller);
  const auto paths = disjoint_view_paths(s.view, 4, 1, 3);
  for (const auto& p : paths) {
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_NE(p[i], 5) << "controller used as relay";
    }
  }
}

TEST(RuleCompiler, EmitsForwardAndReverseAlongPaths) {
  RuleCompiler compiler({/*kappa=*/1});
  const auto s = diamond();
  const auto flows = compiler.compile(s.view, s.owner);

  // Destination 1: primary 4-0-1 (lexicographic), backup 4-3-1.
  ASSERT_TRUE(flows->first_hops.count(1));
  EXPECT_EQ(flows->first_hops.at(1), (std::vector<NodeId>{0, 3}));

  // Switch 0 must hold the forward rule (src=4,dest=1,fwd=1) at primary
  // priority and the wildcard reverse (src=*,dest=4).
  const auto rules0 = flows->per_switch.at(0);
  bool fwd = false, rev = false;
  for (const auto& r : *rules0) {
    if (r.src == 4 && r.dest == 1 && r.fwd == 1 && r.prt == compiler.nprt() - 1)
      fwd = true;
    if (r.src == kNoNode && r.dest == 4 && r.fwd == 4) rev = true;
  }
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(rev);
}

TEST(RuleCompiler, TerminalSwitchGetsReturnRoute) {
  RuleCompiler compiler({1});
  const auto s = diamond();
  const auto flows = compiler.compile(s.view, s.owner);
  // Switch 1 (a flow terminal two hops away) must be able to route replies
  // back to the controller: a (src=*,dest=4) rule with an operational fwd.
  const auto rules1 = flows->per_switch.at(1);
  bool has_return = false;
  for (const auto& r : *rules1) {
    if (r.src == kNoNode && r.dest == 4) has_return = true;
  }
  EXPECT_TRUE(has_return);
}

TEST(RuleCompiler, PrioritiesEncodePathRank) {
  RuleCompiler compiler({2});
  const auto s = diamond();
  const auto flows = compiler.compile(s.view, s.owner);
  for (const auto& [sid, rules] : flows->per_switch) {
    for (const auto& r : *rules) {
      EXPECT_GE(r.prt, 0);
      EXPECT_LE(r.prt, compiler.nprt() - 1);
      EXPECT_EQ(r.sid, sid);
      EXPECT_EQ(r.cid, s.owner);
    }
  }
}

TEST(RuleCompiler, RuleListsAreCanonicallySorted) {
  RuleCompiler compiler({2});
  const auto s = from_topology(topo::make_b4(), 0, 7);
  const auto flows = compiler.compile(s.view, s.owner);
  for (const auto& [sid, rules] : flows->per_switch) {
    EXPECT_TRUE(std::is_sorted(rules->begin(), rules->end(), rule_order));
    // No exact duplicates.
    for (std::size_t i = 0; i + 1 < rules->size(); ++i) {
      EXPECT_FALSE((*rules)[i] == (*rules)[i + 1]);
    }
  }
}

TEST(RuleCompiler, RuleCountRespectsLemma1Bound) {
  // Lemma 1 flavor: per controller a switch stores O((N_C+N_S-1) * n_prt)
  // rules — here each destination contributes at most kappa+1 forward and
  // kappa+1 reverse rules at any one switch.
  RuleCompiler compiler({2});
  for (const auto& t : topo::paper_topologies()) {
    const auto s = from_topology(t, 0, t.switch_graph.n() / 2);
    const auto flows = compiler.compile(s.view, s.owner);
    const std::size_t bound =
        static_cast<std::size_t>(s.view.node_count() - 1) * 2 *
        static_cast<std::size_t>(compiler.kappa() + 1);
    for (const auto& [sid, rules] : flows->per_switch) {
      EXPECT_LE(rules->size(), bound) << t.name << " switch " << sid;
    }
  }
}

TEST(RuleCompiler, CacheKeyIncludesTransitMap) {
  // The cache key folds in who relays: the view fingerprint hashes each
  // node's relay bit.
  RuleCompiler compiler({1});
  auto s = diamond();
  const auto a = compiler.compile_cached(s.view, s.owner);
  const auto b = compiler.compile_cached(s.view, s.owner);
  EXPECT_EQ(a.get(), b.get());  // cache hit
  // Same graph, different knowledge about node kinds: must recompile.
  TopoView view2 = s.view;
  view2.set_kind(1, NodeKind::Controller);  // node 1 turns out a controller
  const auto c = compiler.compile_cached(view2, s.owner);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->view_fingerprint, c->view_fingerprint);
  // An unknown node relays like a switch, so it compiles from the cache.
  TopoView view3 = s.view;
  view3.set_kind(1, std::nullopt);
  EXPECT_EQ(compiler.compile_cached(view3, s.owner).get(), a.get());
}

TEST(RuleCompiler, UnknownNodesAreOptimisticallyTransit) {
  RuleCompiler compiler({1});
  Scenario s = diamond();
  for (NodeId n : {0, 1, 2, 3}) s.view.set_kind(n, std::nullopt);
  const auto flows = compiler.compile(s.view, s.owner);
  EXPECT_FALSE(flows->first_hops.empty());
  EXPECT_TRUE(flows->first_hops.count(3));
}

TEST(RuleCompiler, DataFlowCoversBothDirectionsAndDelivery) {
  RuleCompiler compiler({1});
  const auto s = diamond();
  const NodeId ha = 10, hb = 11;
  const auto df = compiler.compile_data_flow(s.view, s.owner, ha, 0, hb, 3);
  EXPECT_EQ(df.first_hops_a, (std::vector<NodeId>{0}));
  EXPECT_EQ(df.first_hops_b, (std::vector<NodeId>{3}));
  // Delivery rules at the attachment switches.
  bool deliver_b = false, deliver_a = false;
  for (const auto& r : *df.per_switch.at(3)) {
    if (r.src == ha && r.dest == hb && r.fwd == hb) deliver_b = true;
  }
  for (const auto& r : *df.per_switch.at(0)) {
    if (r.src == hb && r.dest == ha && r.fwd == ha) deliver_a = true;
  }
  EXPECT_TRUE(deliver_b);
  EXPECT_TRUE(deliver_a);
}

TEST(RuleCompiler, DataFlowIgnoresAttachmentKinds) {
  // The path search never asks whether its source or its target relays, so
  // marking both attachment switches as controllers changes no rule.
  RuleCompiler compiler({1});
  const auto s = from_topology(topo::make_b4(), 0, 7);
  const NodeId ha = 100, hb = 101;
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 7}, {2, 5}, {11, 3}}) {
    const auto want = compiler.compile_data_flow(s.view, s.owner, ha, a, hb, b);
    TopoView marked = s.view;
    marked.set_kind(a, NodeKind::Controller);
    marked.set_kind(b, NodeKind::Controller);
    const auto got = compiler.compile_data_flow(marked, s.owner, ha, a, hb, b);
    EXPECT_GT(want.per_switch.size(), 2u) << a << "-" << b;
    EXPECT_EQ(got.first_hops_a, want.first_hops_a);
    EXPECT_EQ(got.first_hops_b, want.first_hops_b);
    ASSERT_EQ(got.per_switch.size(), want.per_switch.size()) << a << "-" << b;
    for (const auto& [sid, list] : want.per_switch) {
      ASSERT_EQ(got.per_switch.count(sid), 1u) << "switch " << sid;
      EXPECT_EQ(*got.per_switch.at(sid), *list) << "switch " << sid;
    }
  }
}

TEST(RuleCompiler, SingleFailureLeavesAnInstalledPathIntact) {
  // The kappa-fault-resilience property at the flow level: with kappa=1,
  // two edge-disjoint paths exist for every destination on a 2-edge-
  // connected topology, so any single link failure leaves one path whole.
  RuleCompiler compiler({1});
  for (const auto& t : topo::paper_topologies()) {
    const auto s = from_topology(t, 0, t.switch_graph.n() - 1);
    std::vector<NodeId> dsts;
    for (const auto& [n, _] : s.view.nodes()) {
      if (n != s.owner) dsts.push_back(n);
    }
    int checked = 0;
    for (NodeId d : dsts) {
      if (++checked > 12) break;  // sample for speed
      const auto paths = disjoint_view_paths(s.view, s.owner, d, 2);
      ASSERT_GE(paths.size(), 2u)
          << t.name << ": no two disjoint paths to " << d;
    }
  }
}

// --- compile() against compile_oracle() -------------------------------------
// The fast path must reproduce the oracle byte for byte: fingerprint, first
// hops and every per-switch list. The random-view tests keep one compiler
// per kappa across all their cases, so the scratch a compiler keeps between
// calls is exercised on views that grow and shrink.

/// A control-plane view like sim::Experiment's truth: the switch fabric plus
/// `controllers` controllers, each attached to `attach` distinct switches,
/// every kind known.
struct ControlPlane {
  TopoView view;
  std::vector<NodeId> owners;
};

ControlPlane control_plane(const flows::Graph& g, int controllers, int attach,
                           std::uint64_t seed) {
  ControlPlane cp;
  const int n = g.n();
  for (int u = 0; u < n; ++u) {
    cp.view.set_kind(u, NodeKind::Switch);
    for (int v : g.neighbors(u)) cp.view.add_edge(u, v);
  }
  Rng rng(seed);
  std::vector<int> switches(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) switches[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < controllers; ++k) {
    const NodeId c = n + k;
    cp.owners.push_back(c);
    cp.view.set_kind(c, NodeKind::Controller);
    rng.shuffle(switches);
    for (int a = 0; a < std::min(attach, n); ++a) {
      cp.view.add_sym_edge(c, switches[static_cast<std::size_t>(a)]);
    }
  }
  return cp;
}

void expect_oracle(const RuleCompiler& compiler, const TopoView& view,
                   NodeId owner, const std::string& what) {
  const auto fast = compiler.compile(view, owner);
  const auto oracle = compiler.compile_oracle(view, owner);
  EXPECT_TRUE(identical_flows(*fast, *oracle))
      << what << " owner " << owner << " kappa " << compiler.kappa();
}

/// One compiler per kappa = 0..3.
std::vector<RuleCompiler> compilers_by_kappa() {
  std::vector<RuleCompiler> out;
  for (int kappa = 0; kappa <= 3; ++kappa) {
    out.emplace_back(RuleCompiler::Config{kappa});
  }
  return out;
}

/// Every controller as owner at kappa = lo..hi on `spec`'s control plane.
void expect_oracle_on_fabric(const std::string& spec, int lo = 0, int hi = 3) {
  const topo::Topology t = topo::resolve(spec);
  for (int kappa = lo; kappa <= hi; ++kappa) {
    const RuleCompiler compiler({kappa});
    const ControlPlane cp =
        control_plane(t.switch_graph, 3, kappa + 1, 0x5eedULL + kappa);
    for (NodeId owner : cp.owners) {
      const auto oracle = compiler.compile_oracle(cp.view, owner);
      ASSERT_EQ(oracle->first_hops.size(), cp.view.node_count() - 1) << spec;
      EXPECT_TRUE(identical_flows(*compiler.compile(cp.view, owner), *oracle))
          << spec << " owner " << owner << " kappa " << kappa;
    }
  }
}

TEST(RuleCompiler, MapAdapterMatchesStampedKinds) {
  // compile(view, owner, map) is compile() on a copy of `view` whose kinds
  // come from the map: true a switch, false a controller, every other node
  // unknown. Ids the view lacks add no node.
  const topo::Topology t = topo::resolve("ATT");
  const RuleCompiler compiler({1});
  const ControlPlane cp = control_plane(t.switch_graph, 3, 2, 7);
  Rng rng(0xada7ULL);
  for (int trial = 0; trial < 20; ++trial) {
    std::map<NodeId, bool> transit;
    TopoView stamped = cp.view;
    for (const auto& [n, node] : cp.view.nodes()) {
      const double roll = rng.next_double();
      if (roll < 0.6) {  // the true kind
        transit[n] = node.kind == NodeKind::Switch;
      } else if (roll < 0.7) {  // a relay reported as a controller
        transit[n] = false;
        stamped.set_kind(n, NodeKind::Controller);
      } else {  // unknown
        stamped.set_kind(n, std::nullopt);
      }
    }
    transit[6000] = true;  // not a node of the view
    for (NodeId owner : cp.owners) {
      const auto via_map = compiler.compile(cp.view, owner, transit);
      EXPECT_TRUE(identical_flows(*via_map, *compiler.compile(stamped, owner)))
          << "trial " << trial << " owner " << owner;
    }
  }
}

TEST(RuleCompilerOracle, IdenticalFlowsComparesContent) {
  const RuleCompiler compiler({1});
  const auto s = diamond();
  const auto a = compiler.compile(s.view, s.owner);
  const auto b = compiler.compile_oracle(s.view, s.owner);
  EXPECT_NE(a.get(), b.get());
  EXPECT_TRUE(identical_flows(*a, *b));
  // One rule's out-port differs: same fingerprint and hops, other content.
  CompiledFlows changed = *b;
  auto list = *changed.per_switch.begin()->second;
  list.front().fwd += 1;
  changed.per_switch.begin()->second =
      std::make_shared<const proto::RuleList>(std::move(list));
  EXPECT_FALSE(identical_flows(*a, changed));
  changed = *b;
  changed.first_hops.begin()->second.push_back(99);
  EXPECT_FALSE(identical_flows(*a, changed));
}

TEST(RuleCompilerOracle, Table8Builtins) {
  for (const char* spec : {"B4", "Clos", "Telstra", "ATT", "EBONE"}) {
    expect_oracle_on_fabric(spec);
  }
}

TEST(RuleCompilerOracle, FatTrees) {
  for (int k = 4; k <= 16; k += 2) {
    expect_oracle_on_fabric("fat_tree:k=" + std::to_string(k));
  }
}

TEST(RuleCompilerOracle, RandomWan256) {
  expect_oracle_on_fabric("random_wan:nodes=256,m=2,seed=1");
}

// The oracle needs seconds per kappa here; one test per kappa lets ctest
// run them side by side.
class RuleCompilerOracleWan1024 : public ::testing::TestWithParam<int> {};

TEST_P(RuleCompilerOracleWan1024, AtKappa) {
  expect_oracle_on_fabric("random_wan:nodes=1024,m=2,seed=1", GetParam(),
                          GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kappa, RuleCompilerOracleWan1024,
                         ::testing::Range(0, 4));

TEST(RuleCompilerOracle, PartialAsymmetricAndCorruptedViews) {
  // What a controller's view looks like mid-bootstrap or after state
  // corruption: directed evidence from a subset of repliers, one-way and
  // fabricated edges (some to far-out ids, which leave the dense index),
  // nodes of unknown kind, controllers and failed relays as interiors,
  // unreachable islands.
  const topo::Topology t = topo::resolve("ATT");
  const int n = t.switch_graph.n();
  const auto compilers = compilers_by_kappa();
  Rng rng(0x0a11cULL);
  for (int trial = 0; trial < 60; ++trial) {
    const int kappa = trial % 4;
    const RuleCompiler& compiler = compilers[static_cast<std::size_t>(kappa)];
    const ControlPlane cp = control_plane(t.switch_graph, 3, kappa + 1,
                                          static_cast<std::uint64_t>(trial));
    TopoView view;
    for (const auto& [u, node] : cp.view.nodes()) {
      if (!rng.chance(0.8)) continue;  // u has not replied yet
      view.add_node(u);
      if (rng.chance(0.9)) view.set_kind(u, node.kind);  // else unknown
      for (NodeId v : node.out) {
        if (rng.chance(0.9)) view.add_edge(u, v);  // else one-way or lost
      }
    }
    for (int f = 0; f < 8; ++f) {  // fabricated edges
      const auto a = static_cast<NodeId>(rng.next_below(n + 3));
      const NodeId b = rng.chance(0.5)
                           ? static_cast<NodeId>(rng.next_below(n + 3))
                           : static_cast<NodeId>(1 << 20) +
                                 static_cast<NodeId>(rng.next_below(4));
      view.add_edge(a, b);
    }
    for (int f = 0; f < 4; ++f) {  // relays reported as controllers
      const auto x = static_cast<NodeId>(rng.next_below(n));
      if (view.has_node(x)) view.set_kind(x, NodeKind::Controller);
    }
    view.add_sym_edge(5000, 5001);  // an island no owner reaches
    const std::string what = "trial " + std::to_string(trial);
    for (NodeId owner : cp.owners) {
      expect_oracle(compiler, view, owner, what);
      if (!view.has_node(owner)) continue;
      TopoView claims_switch = view;
      // The owner never relays its own flows, whatever its kind says.
      claims_switch.set_kind(owner, NodeKind::Switch);
      expect_oracle(compiler, claims_switch, owner, what);
      claims_switch.set_kind(owner, std::nullopt);
      expect_oracle(compiler, claims_switch, owner, what);
    }
    expect_oracle(compiler, view, 7000, what + " absent owner");
  }
}

TEST(RuleCompilerOracle, RandomDigraphs) {
  // Small dense digraphs with random node kinds: many equal-length
  // alternatives, so every tie-break of the backup search is exercised.
  const auto compilers = compilers_by_kappa();
  Rng rng(0xd1ceULL);
  for (int trial = 0; trial < 400; ++trial) {
    const RuleCompiler& compiler =
        compilers[static_cast<std::size_t>(trial % 4)];
    const auto n = static_cast<NodeId>(3 + rng.next_below(14));
    TopoView view;
    for (NodeId u = 0; u < n; ++u) {
      view.add_node(u);
      const double roll = rng.next_double();
      if (roll < 0.7) {
        view.set_kind(u, NodeKind::Switch);
      } else if (roll < 0.85) {
        view.set_kind(u, NodeKind::Controller);
      }
    }
    const int edges = static_cast<int>(rng.next_below(4 * n));
    for (int e = 0; e < edges; ++e) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (rng.chance(0.7)) {
        view.add_sym_edge(a, b);
      } else {
        view.add_edge(a, b);
      }
    }
    const auto owner = static_cast<NodeId>(rng.next_below(n));
    expect_oracle(compiler, view, owner,
                  "digraph trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ren::flows
