// Flow-churn workload: generator determinism, malformed-spec rejection,
// and the campaign report schema for the "table" / "watchdog" blocks
// (docs/scenarios.md documents these fields; the schema tests here keep the
// docs honest).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "flows/churn.hpp"
#include "test_helpers.hpp"

namespace ren {
namespace {

using scenario::Scenario;

// --- Generator ---------------------------------------------------------------

flows::ChurnConfig small_churn(double rate = 500.0) {
  flows::ChurnConfig cfg;
  cfg.rate = rate;
  cfg.mean_duration = msec(100);
  return cfg;
}

flows::Graph line_graph(int n) {
  flows::Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(ChurnGenerator, SameSeedSameArrivals) {
  const auto g = line_graph(8);
  flows::ChurnGenerator a(g, small_churn(), /*seed=*/7, /*start=*/0);
  flows::ChurnGenerator b(g, small_churn(), /*seed=*/7, /*start=*/0);
  std::vector<flows::FlowArrival> va, vb;
  a.advance(sec(2), va);
  b.advance(sec(2), vb);
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_GT(va.size(), 0u);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].id, vb[i].id);
    EXPECT_EQ(va[i].src, vb[i].src);
    EXPECT_EQ(va[i].dst, vb[i].dst);
    EXPECT_EQ(va[i].at, vb[i].at);
    EXPECT_EQ(va[i].duration, vb[i].duration);
    EXPECT_EQ(va[i].prt, vb[i].prt);
  }
  // A different seed draws a different stream.
  flows::ChurnGenerator c(g, small_churn(), /*seed=*/8, /*start=*/0);
  std::vector<flows::FlowArrival> vc;
  c.advance(sec(2), vc);
  bool differs = vc.size() != va.size();
  for (std::size_t i = 0; !differs && i < va.size(); ++i) {
    differs = va[i].at != vc[i].at || va[i].dst != vc[i].dst;
  }
  EXPECT_TRUE(differs);
}

TEST(ChurnGenerator, ArrivalsAreWellFormedAndRateShaped) {
  const auto g = line_graph(16);
  flows::ChurnGenerator gen(g, small_churn(1000.0), 1, /*start=*/sec(1));
  std::vector<flows::FlowArrival> v;
  gen.advance(sec(11), v);  // a 10-second window at 1000 flows/s
  EXPECT_GT(v.size(), 8000u);
  EXPECT_LT(v.size(), 12000u);
  std::set<std::uint64_t> ids;
  Time prev = 0;
  for (const auto& a : v) {
    EXPECT_TRUE(ids.insert(a.id).second) << "duplicate flow id " << a.id;
    EXPECT_GE(a.at, sec(1));
    EXPECT_LE(a.at, sec(11));
    EXPECT_GE(a.at, prev);  // arrivals come out in time order
    prev = a.at;
    EXPECT_GE(a.src, 0);
    EXPECT_LT(a.src, 16);
    EXPECT_GE(a.dst, 0);
    EXPECT_LT(a.dst, 16);
    EXPECT_NE(a.src, a.dst);
    EXPECT_GE(a.duration, 1);
  }
  EXPECT_EQ(gen.arrivals(), v.size());
}

TEST(ChurnGenerator, ZipfSkewsDestinationPopularity) {
  const auto g = line_graph(32);
  flows::ChurnConfig cfg = small_churn(2000.0);
  cfg.zipf = 1.2;
  flows::ChurnGenerator gen(g, cfg, 3, 0);
  std::vector<flows::FlowArrival> v;
  gen.advance(sec(10), v);
  std::vector<int> by_dst(32, 0);
  for (const auto& a : v) ++by_dst[a.dst];
  const int top = *std::max_element(by_dst.begin(), by_dst.end());
  // Under a uniform draw each destination would get ~1/32 of the flows; the
  // Zipf head must be far above that share.
  EXPECT_GT(top, static_cast<int>(2 * v.size() / 32));
}

TEST(ChurnGenerator, NextHopFollowsShortestPaths) {
  const auto g = line_graph(6);
  flows::ChurnGenerator gen(g, small_churn(), 1, 0);
  // On a line, every hop toward dst is the neighbor in that direction.
  EXPECT_EQ(gen.next_hop(0, 5), 1);
  EXPECT_EQ(gen.next_hop(4, 5), 5);
  EXPECT_EQ(gen.next_hop(5, 0), 4);
  std::vector<NodeId> hops;
  gen.path_hops(1, 4, hops);
  EXPECT_EQ(hops, (std::vector<NodeId>{1, 2, 3}));  // src..pre-dst
}

TEST(ChurnGenerator, NextHopsArePinnedWhereShortestPathsTie) {
  // Clos has many equal-length paths between pods; the routing tree must
  // keep picking the same one (the lowest-id neighbor found first).
  flows::ChurnGenerator gen(topo::make_clos().switch_graph, small_churn(), 1,
                            0);
  std::vector<NodeId> hops;
  gen.path_hops(0, 7, hops);
  EXPECT_EQ(hops, (std::vector<NodeId>{0, 8, 16, 14}));
  std::size_t total = 0;
  int pairs = 0;
  for (NodeId src = 0; src < 20; ++src) {
    for (NodeId dst = 0; dst < 20; ++dst) {
      if (src == dst) continue;
      gen.path_hops(src, dst, hops);
      total += hops.size();
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 380);
  EXPECT_EQ(total, 984u);
}

TEST(ChurnGenerator, RejectsInvalidConfigs) {
  const auto g = line_graph(4);
  auto bad = [&](auto mutate) {
    flows::ChurnConfig cfg = small_churn();
    mutate(cfg);
    EXPECT_THROW(flows::ChurnGenerator(g, cfg, 1, 0), std::invalid_argument);
  };
  bad([](auto& c) { c.rate = 0; });
  bad([](auto& c) { c.rate = -5; });
  bad([](auto& c) { c.alpha = 1.0; });
  bad([](auto& c) { c.zipf = -0.1; });
  bad([](auto& c) { c.mean_duration = 0; });
  bad([](auto& c) { c.priorities = 0; });
  EXPECT_THROW(flows::ChurnGenerator(line_graph(1), small_churn(), 1, 0),
               std::invalid_argument);
}

// --- Spec validation ---------------------------------------------------------

std::string spec_with_events(const std::string& events_json) {
  return R"({"name":"x","description":"d","topologies":["B4"],)"
         R"("controllers":[3],"trials":1,"seed":1,"events":[)" +
         events_json + "]}";
}

void expect_spec_error(const std::string& spec, const std::string& needle) {
  try {
    (void)scenario::parse_spec(spec);
    FAIL() << "spec accepted; expected error containing \"" << needle << "\"";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(FlowChurnSpec, RejectsMalformedChurnEvents) {
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","rate":-10})"),
      "events[0]: start_flow_churn: rate must be > 0");
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","rate":100,"dist":"cauchy"})"),
      "dist must be \"pareto\" or \"poisson\"");
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","rate":100,"alpha":0.5})"),
      "alpha must be > 1");
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","rate":100,)"
          R"("eviction":"random"})"),
      "eviction must be \"priority_lru\" or \"reject_lowest\"");
  // Nesting: stop before any start, and a second start while active.
  expect_spec_error(
      spec_with_events(R"({"at_ms":0,"kind":"stop_flow_churn"})"),
      "stop_flow_churn before any start_flow_churn");
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","rate":100},)"
          R"({"at_ms":1000,"kind":"start_flow_churn","rate":100})"),
      "start_flow_churn while flow churn is already active");
  // Typos in churn keys are unknown keys, not silently ignored.
  expect_spec_error(
      spec_with_events(
          R"({"at_ms":0,"kind":"start_flow_churn","ratee":100})"),
      "unknown key");
}

TEST(FlowChurnSpec, MalformedJsonReportsLineAndColumn) {
  // The scenario/json.cpp parser positions its errors; a hand-edited spec
  // with a syntax error must say where.
  try {
    (void)scenario::parse_spec("{\n  \"name\": \"x\",\n  !bad\n}");
    FAIL() << "malformed JSON accepted";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("column"), std::string::npos) << what;
  }
}

TEST(FlowChurnSpec, RateAxisRequiresChurnRateAxis) {
  Scenario s;
  s.name = "axis_churn";
  s.description = "rate from the churn_rate axis";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_flow_churn(sec(1), scenario::kRateAxis);
  s.stop_flow_churn(sec(2));
  scenario::RunnerOptions opt;
  opt.threads = 1;
  EXPECT_THROW((void)scenario::run_campaign(s, opt), std::invalid_argument);
  s.axis("churn_rate", {500});
  const auto result = scenario::run_campaign(s, opt);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].metric("arrivals").reported);
  EXPECT_GT(result.cells[0].metric("arrivals").summary.mean, 0);
}

TEST(FlowChurnSpec, BuilderChurnEventsSurviveRoundTrip) {
  Scenario s;
  s.name = "rt";
  s.description = "round trip";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.start_flow_churn(sec(1), 1500.0, msec(250), /*alpha=*/2.0, /*zipf=*/0.5,
                     "poisson", "reject_lowest");
  s.stop_flow_churn(sec(5));
  const Scenario reparsed = scenario::parse_spec(scenario::to_spec_json(s).pretty());
  EXPECT_EQ(s, reparsed);
}

// --- Report schema -----------------------------------------------------------

TEST(CampaignSchema, TableAndWatchdogBlocksCarryTheDocumentedFields) {
  // trial_outcome_json is the raw-export schema; docs/scenarios.md lists
  // exactly these members for the gated blocks.
  scenario::TrialOutcome out;
  out.ok = true;
  out.has_table = true;
  out.has_watchdog = true;
  const scenario::Json j = scenario::trial_outcome_json(out);
  const scenario::Json* table = j.find("table");
  ASSERT_NE(table, nullptr);
  for (const char* key : {"arrivals", "departures", "peak_active", "installs",
                          "overflows", "evictions", "peak_rules", "lookups",
                          "lookup_cost"}) {
    EXPECT_NE(table->find(key), nullptr) << "table." << key;
  }
  const scenario::Json* wd = j.find("watchdog");
  ASSERT_NE(wd, nullptr);
  for (const char* key :
       {"below_s", "episodes", "blast_radius", "restabilized"}) {
    EXPECT_NE(wd->find(key), nullptr) << "watchdog." << key;
  }
  // The gates: an outcome without the flags emits neither block, which is
  // what keeps churn-free campaign reports byte-identical to older ones.
  scenario::TrialOutcome plain;
  plain.ok = true;
  const scenario::Json pj = scenario::trial_outcome_json(plain);
  EXPECT_EQ(pj.find("table"), nullptr);
  EXPECT_EQ(pj.find("watchdog"), nullptr);
}

}  // namespace
}  // namespace ren
