#include <gtest/gtest.h>

#include <set>

#include "flows/my_rules.hpp"
#include "topo/source.hpp"
#include "topo/topologies.hpp"
#include "util/rng.hpp"

namespace ren::flows {
namespace {

/// View of a physical topology plus an attached controller.
struct Scenario {
  TopoView view;
  std::map<NodeId, bool> transit;
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
  for (NodeId n : {0, 1, 2, 3}) s.transit[n] = true;
  s.transit[4] = false;
  return s;
}

Scenario from_topology(const topo::Topology& t, NodeId attach_a, NodeId attach_b) {
  Scenario s;
  s.owner = t.switch_graph.n();
  for (int u = 0; u < t.switch_graph.n(); ++u) {
    s.transit[u] = true;
    for (int v : t.switch_graph.neighbors(u)) s.view.add_sym_edge(u, v);
  }
  s.view.add_sym_edge(s.owner, attach_a);
  s.view.add_sym_edge(s.owner, attach_b);
  s.transit[s.owner] = false;
  return s;
}

TEST(DisjointViewPaths, PairwiseEdgeDisjointAndSimple) {
  const auto s = diamond();
  const auto paths = disjoint_view_paths(s.view, 4, 3, 3, s.transit);
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
  s.transit[5] = false;
  const auto paths = disjoint_view_paths(s.view, 4, 1, 3, s.transit);
  for (const auto& p : paths) {
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_NE(p[i], 5) << "controller used as relay";
    }
  }
}

TEST(RuleCompiler, EmitsForwardAndReverseAlongPaths) {
  RuleCompiler compiler({/*kappa=*/1});
  const auto s = diamond();
  const auto flows = compiler.compile(s.view, s.owner, s.transit);

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
  const auto flows = compiler.compile(s.view, s.owner, s.transit);
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
  const auto flows = compiler.compile(s.view, s.owner, s.transit);
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
  const auto flows = compiler.compile(s.view, s.owner, s.transit);
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
    const auto flows = compiler.compile(s.view, s.owner, s.transit);
    const std::size_t bound =
        static_cast<std::size_t>(s.view.node_count() - 1) * 2 *
        static_cast<std::size_t>(compiler.kappa() + 1);
    for (const auto& [sid, rules] : flows->per_switch) {
      EXPECT_LE(rules->size(), bound) << t.name << " switch " << sid;
    }
  }
}

TEST(RuleCompiler, CacheKeyIncludesTransitMap) {
  RuleCompiler compiler({1});
  auto s = diamond();
  const auto a = compiler.compile_cached(s.view, s.owner, s.transit);
  const auto b = compiler.compile_cached(s.view, s.owner, s.transit);
  EXPECT_EQ(a.get(), b.get());  // cache hit
  // Same view, different knowledge about node kinds: must recompile.
  auto transit2 = s.transit;
  transit2[1] = false;  // node 1 turns out to be a controller
  const auto c = compiler.compile_cached(s.view, s.owner, transit2);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->view_fingerprint, c->view_fingerprint);
}

TEST(RuleCompiler, UnknownNodesAreOptimisticallyTransit) {
  RuleCompiler compiler({1});
  Scenario s = diamond();
  std::map<NodeId, bool> partial = {{4, false}};  // kinds unknown otherwise
  const auto flows = compiler.compile(s.view, s.owner, partial);
  EXPECT_FALSE(flows->first_hops.empty());
  EXPECT_TRUE(flows->first_hops.count(3));
}

TEST(RuleCompiler, DataFlowCoversBothDirectionsAndDelivery) {
  RuleCompiler compiler({1});
  const auto s = diamond();
  const NodeId ha = 10, hb = 11;
  const auto df =
      compiler.compile_data_flow(s.view, s.owner, ha, 0, hb, 3, s.transit);
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

TEST(RuleCompiler, SingleFailureLeavesAnInstalledPathIntact) {
  // The kappa-fault-resilience property at the flow level: with kappa=1,
  // two edge-disjoint paths exist for every destination on a 2-edge-
  // connected topology, so any single link failure leaves one path whole.
  RuleCompiler compiler({1});
  for (const auto& t : topo::paper_topologies()) {
    const auto s = from_topology(t, 0, t.switch_graph.n() - 1);
    std::vector<NodeId> dsts;
    for (const auto& [n, _] : s.view.adj()) {
      if (n != s.owner) dsts.push_back(n);
    }
    int checked = 0;
    for (NodeId d : dsts) {
      if (++checked > 12) break;  // sample for speed
      const auto paths =
          disjoint_view_paths(s.view, s.owner, d, 2, s.transit);
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
/// `controllers` controllers, each attached to `attach` distinct switches.
struct ControlPlane {
  TopoView view;
  std::map<NodeId, bool> transit;
  std::vector<NodeId> owners;
};

ControlPlane control_plane(const flows::Graph& g, int controllers, int attach,
                           std::uint64_t seed) {
  ControlPlane cp;
  const int n = g.n();
  for (int u = 0; u < n; ++u) {
    cp.view.add_node(u);
    cp.transit[u] = true;
    for (int v : g.neighbors(u)) cp.view.add_edge(u, v);
  }
  Rng rng(seed);
  std::vector<int> switches(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) switches[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < controllers; ++k) {
    const NodeId c = n + k;
    cp.owners.push_back(c);
    cp.transit[c] = false;
    rng.shuffle(switches);
    for (int a = 0; a < std::min(attach, n); ++a) {
      cp.view.add_sym_edge(c, switches[static_cast<std::size_t>(a)]);
    }
  }
  return cp;
}

void expect_oracle(const RuleCompiler& compiler, const TopoView& view,
                   NodeId owner, const std::map<NodeId, bool>& transit,
                   const std::string& what) {
  const auto fast = compiler.compile(view, owner, transit);
  const auto oracle = compiler.compile_oracle(view, owner, transit);
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
      const auto oracle = compiler.compile_oracle(cp.view, owner, cp.transit);
      ASSERT_EQ(oracle->first_hops.size(), cp.view.node_count() - 1) << spec;
      EXPECT_TRUE(identical_flows(
          *compiler.compile(cp.view, owner, cp.transit), *oracle))
          << spec << " owner " << owner << " kappa " << kappa;
    }
  }
}

TEST(RuleCompilerOracle, IdenticalFlowsComparesContent) {
  const RuleCompiler compiler({1});
  const auto s = diamond();
  const auto a = compiler.compile(s.view, s.owner, s.transit);
  const auto b = compiler.compile_oracle(s.view, s.owner, s.transit);
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
  // unreachable islands, transit entries for nodes outside the view.
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
    std::map<NodeId, bool> transit;
    for (const auto& [u, nbrs] : cp.view.adj()) {
      if (!rng.chance(0.8)) continue;  // u has not replied yet
      view.add_node(u);
      if (rng.chance(0.9)) transit[u] = cp.transit.at(u);  // else unknown
      for (NodeId v : nbrs) {
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
    for (int f = 0; f < 4; ++f) {  // relays reported as non-transit
      transit[static_cast<NodeId>(rng.next_below(n))] = false;
    }
    view.add_sym_edge(5000, 5001);  // an island no owner reaches
    transit[6000] = true;           // kind known, node not in the view
    const std::string what = "trial " + std::to_string(trial);
    for (NodeId owner : cp.owners) {
      expect_oracle(compiler, view, owner, transit, what);
      auto claims_transit = transit;
      claims_transit[owner] = true;  // the owner never relays its own flows
      expect_oracle(compiler, view, owner, claims_transit, what);
    }
    expect_oracle(compiler, view, 7000, transit, what + " absent owner");
  }
}

TEST(RuleCompilerOracle, RandomDigraphs) {
  // Small dense digraphs with random transit flags: many equal-length
  // alternatives, so every tie-break of the backup search is exercised.
  const auto compilers = compilers_by_kappa();
  Rng rng(0xd1ceULL);
  for (int trial = 0; trial < 400; ++trial) {
    const RuleCompiler& compiler =
        compilers[static_cast<std::size_t>(trial % 4)];
    const auto n = static_cast<NodeId>(3 + rng.next_below(14));
    TopoView view;
    std::map<NodeId, bool> transit;
    for (NodeId u = 0; u < n; ++u) {
      view.add_node(u);
      const double roll = rng.next_double();
      if (roll < 0.7) {
        transit[u] = true;
      } else if (roll < 0.85) {
        transit[u] = false;
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
    expect_oracle(compiler, view, owner, transit,
                  "digraph trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ren::flows
