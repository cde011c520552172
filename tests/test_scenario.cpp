// Scenario engine: JSON plumbing, spec round-trips, restart/restore fault
// bookkeeping, and the campaign runner's thread-count determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "test_helpers.hpp"

namespace ren {
namespace {

using scenario::Json;
using scenario::Scenario;

// --- JSON -------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"name":"x","n":3,"f":1.5,"flag":true,"none":null,)"
      R"("arr":[1,2,3],"nested":{"s":"a\nb"}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.string_or("name", ""), "x");
  EXPECT_EQ(doc.number_or("n", 0), 3);
  EXPECT_EQ(doc.number_or("f", 0), 1.5);
  EXPECT_TRUE(doc.bool_or("flag", false));
  EXPECT_TRUE(doc.find("none")->is_null());
  EXPECT_EQ(doc.find("arr")->as_array().size(), 3u);
  EXPECT_EQ(doc.find("nested")->find("s")->as_string(), "a\nb");
  // dump -> parse -> dump is a fixed point.
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("nope"), std::runtime_error);
  // Malformed numbers must not be silently prefix-parsed.
  EXPECT_THROW(Json::parse("[1.2.3]"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1-2]"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1e]"), std::runtime_error);
  // JSON has no inf or nan: rendering one is an error, not a bare token.
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(),
               std::runtime_error);
  EXPECT_THROW((void)Json(std::numeric_limits<double>::quiet_NaN()).pretty(),
               std::runtime_error);
}

// --- Spec round-trip --------------------------------------------------------

TEST(ScenarioSpec, BuiltinsRoundTrip) {
  for (const auto& name : scenario::builtin_names()) {
    const Scenario original = scenario::builtin(name);
    const std::string spec = scenario::to_spec_json(original).pretty();
    const Scenario reparsed = scenario::parse_spec(spec);
    EXPECT_EQ(original, reparsed) << "round-trip changed scenario " << name;
  }
}

TEST(ScenarioSpec, BuilderEventsSurviveRoundTrip) {
  Scenario s;
  s.name = "custom";
  s.description = "desc";
  s.topologies = {"B4"};
  s.controllers = {3, 5};
  s.trials = 3;
  s.base_seed = 42;
  s.expect_converged(sec(0), "bootstrap", sec(90))
      .fail_links(sec(2), 2, /*keep_connected=*/false)
      .kill_switches(sec(3), 2)
      .corrupt_all(sec(4))
      .freeze(sec(5))
      .unfreeze(sec(6))
      .restore_links(sec(7))
      .restart_nodes(sec(7))
      .start_traffic(sec(8))
      .expect_converged(sec(9), "end", sec(60));
  const Scenario reparsed = scenario::parse_spec(scenario::to_spec_json(s).dump());
  EXPECT_EQ(s, reparsed);
}

TEST(ScenarioSpec, RejectsUnknownKeysAndKinds) {
  EXPECT_THROW(scenario::parse_spec(R"({"name":"x","bogus":1})"),
               std::runtime_error);
  EXPECT_THROW(
      scenario::parse_spec(R"({"events":[{"kind":"explode_switch"}]})"),
      std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec(R"({"trials":0})"), std::runtime_error);
  EXPECT_THROW(scenario::parse_spec(R"({"topologies":[]})"),
               std::runtime_error);
}

TEST(ScenarioSpec, UnknownBuiltinThrows) {
  EXPECT_THROW(scenario::builtin("does_not_exist"), std::invalid_argument);
}

TEST(ScenarioSpec, LibrarySizeMatchesTheAdvertisedCount) {
  // kBuiltinCount is the one written-down library size; the name list and
  // the builtin() dispatch must stay in lockstep with it.
  const auto names = scenario::builtin_names();
  EXPECT_EQ(names.size(), scenario::kBuiltinCount);
  for (const auto& n : names) {
    EXPECT_EQ(scenario::builtin(n).name, n);
  }
}

TEST(ScenarioSpec, PaperSpecsAreCanonical) {
  // The paper's figures are checked-in specs (scenarios/paper/): each file
  // is byte for byte what --print-spec prints for it, so a spec has one
  // spelling and a hand edit that changes its meaning shows in review.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(REN_PAPER_SPEC_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  EXPECT_EQ(files.size(), 11u) << "Figs. 5-7 and 9-16, one spec each";
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(scenario::to_spec_json(scenario::parse_spec(ss.str())).pretty(),
              ss.str())
        << path;
  }
}

// --- Generic axes -----------------------------------------------------------

TEST(ScenarioAxes, BuilderValidatesNamesAndValues) {
  Scenario s;
  s.axis("kappa", {1, 2, 3});  // ok
  s.axis("task_delay_ms", {500, 0.5});  // fractional milliseconds are fine
  s.axis("link_loss", {0.0, 0.01});
  s.axis("theta", {10, 30});
  EXPECT_THROW(s.axis("bogus_axis", {1}), std::invalid_argument);
  EXPECT_THROW(s.axis("kappa", {}), std::invalid_argument);
  EXPECT_THROW(s.axis("kappa", {1.5}), std::invalid_argument);
  EXPECT_THROW(s.axis("kappa", {-1}), std::invalid_argument);
  EXPECT_THROW(s.axis("theta", {0}), std::invalid_argument);
  EXPECT_THROW(s.axis("task_delay_ms", {0}), std::invalid_argument);
  EXPECT_THROW(s.axis("link_loss", {1.0}), std::invalid_argument);
  EXPECT_THROW(s.axis("link_loss", {-0.1}), std::invalid_argument);
  // Re-declaring an axis replaces its values instead of duplicating it.
  s.axis("kappa", {4});
  ASSERT_EQ(s.axes.size(), 4u);
  EXPECT_EQ(s.axes[0].values, (std::vector<double>{4}));
  // Non-finite values and values the target type cannot hold.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* name : {"kappa", "theta", "victims", "task_delay_ms",
                           "churn_rate", "table_capacity", "link_loss"}) {
    EXPECT_THROW(s.axis(name, {inf}), std::invalid_argument) << name;
    EXPECT_THROW(s.axis(name, {nan}), std::invalid_argument) << name;
  }
  for (const char* name :
       {"kappa", "theta", "victims", "task_delay_ms", "table_capacity"}) {
    EXPECT_THROW(s.axis(name, {1e300}), std::invalid_argument) << name;
  }
  EXPECT_THROW(s.axis("kappa", {2147483648.0}), std::invalid_argument);
  EXPECT_THROW(s.axis("table_capacity", {9007199254740994.0}),
               std::invalid_argument);
  s.axis("table_capacity", {9007199254740992.0});  // 2^53 is still exact
}

TEST(ScenarioAxes, SpecRoundTripIsIdentity) {
  Scenario s;
  s.name = "axes";
  s.axis("kappa", {1, 2}).axis("task_delay_ms", {500, 100, 20});
  s.calibrate_rtt = true;
  s.max_events = 8'000'000;
  s.expect_converged(sec(0), "bootstrap", sec(30));
  const std::string spec = scenario::to_spec_json(s).pretty();
  const Scenario reparsed = scenario::parse_spec(spec);
  EXPECT_EQ(s, reparsed);
  // And the reparsed spec serializes to the same bytes.
  EXPECT_EQ(scenario::to_spec_json(reparsed).pretty(), spec);
}

TEST(ScenarioAxes, SpecRejectsUnknownAxes) {
  EXPECT_THROW(scenario::parse_spec(R"({"axes":{"warp_factor":[9]}})"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec(R"({"axes":{"kappa":[]}})"),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec(R"({"axes":{"link_loss":[2.0]}})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, TrafficEventsSurviveRoundTrip) {
  Scenario s;
  s.name = "traffic";
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_traffic(sec(5), "window");
  s.fail_path_link(sec(7), msec(200));
  s.stop_traffic(sec(9));
  s.calibrate_rtt = true;
  const Scenario reparsed =
      scenario::parse_spec(scenario::to_spec_json(s).dump());
  EXPECT_EQ(s, reparsed);
  EXPECT_TRUE(reparsed.needs_hosts());
  EXPECT_EQ(reparsed.events[2].detection, msec(200));
}

/// The error parse_spec throws for `spec`, or "" when it parses.
std::string spec_error(const std::string& spec) {
  try {
    (void)scenario::parse_spec(spec);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioSpec, ChecksNumbersBeforeConvertingThem) {
  // Times must be finite, >= 0 and fit Time in microseconds; each error
  // names the event and the key.
  const std::pair<const char*, const char*> bad_times[] = {
      {R"({"at_ms":1e300,"kind":"restore_links"})", "events[1]: \"at_ms\""},
      {R"({"kind":"expect_converged","label":"x","limit_ms":-5})",
       "events[1]: \"limit_ms\""},
      {R"({"kind":"fail_path_link","detection_ms":1e17})",
       "events[1]: \"detection_ms\""},
      {R"({"kind":"start_flow_churn","mean_duration_ms":-1})",
       "events[1]: \"mean_duration_ms\""},
      {R"({"kind":"fail_links","every_ms":1e300,"repeat":2})",
       "events[1]: \"every_ms\""},
      {R"({"at_ms":"soon","kind":"restore_links"})", "events[1]: \"at_ms\""},
  };
  for (const auto& [event, needle] : bad_times) {
    const std::string spec =
        std::string(R"({"events":[{"kind":"freeze"},)") + event + "]}";
    const std::string err = spec_error(spec);
    EXPECT_NE(err.find(needle), std::string::npos) << spec << " -> " << err;
  }
  // Counts must be whole numbers within int range, >= 1.
  const std::pair<const char*, const char*> bad_counts[] = {
      {R"({"events":[{"kind":"kill_switches","count":1.5}]})",
       "events[0]: \"count\""},
      {R"({"events":[{"kind":"kill_switches","count":1e12}]})",
       "events[0]: \"count\""},
      {R"({"events":[{"kind":"fail_links","every_ms":100,"repeat":1.5}]})",
       "events[0]: \"repeat\""},
      {R"({"events":[{"kind":"fail_links","every_ms":100,"repeat":0}]})",
       "events[0]: \"repeat\""},
      {R"({"trials":1.5})", "trials"},
      {R"({"trials":1e12})", "trials"},
      {R"({"controllers":[3,1e12]})", "controllers[1]"},
      {R"({"controllers":[0.5]})", "controllers[0]"},
  };
  for (const auto& [spec, needle] : bad_counts) {
    const std::string err = spec_error(spec);
    EXPECT_NE(err.find(needle), std::string::npos) << spec << " -> " << err;
  }
  // In range, a time keeps whole milliseconds; "axis" stays a count.
  const Scenario ok = scenario::parse_spec(
      R"({"controllers":[2147483647],"events":[)"
      R"({"at_ms":1.9,"kind":"expect_converged","label":"x","limit_ms":0},)"
      R"({"at_ms":9223372036854,"kind":"kill_switches","count":"axis"}]})");
  EXPECT_EQ(ok.controllers, std::vector<int>{2147483647});
  EXPECT_EQ(ok.events[0].at, msec(1));
  EXPECT_EQ(ok.events[0].limit, 0);
  EXPECT_EQ(ok.events[1].at, msec(9223372036854));
  EXPECT_EQ(ok.events[1].count, scenario::kCountAxis);
}

TEST(ScenarioSpec, RejectsSeedsBeyondDoublePrecision) {
  Scenario s;
  s.base_seed = (1ULL << 53) + 1;  // not representable as a double
  EXPECT_THROW(scenario::to_spec_json(s), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec(R"({"seed":1e17})"), std::invalid_argument);
  EXPECT_EQ(scenario::parse_spec(R"({"seed":123})").base_seed, 123u);
  // A campaign's report carries its seed as a JSON number too.
  s.topologies = {"B4"};
  EXPECT_THROW((void)scenario::run_campaign(s), std::invalid_argument);
}

TEST(ScenarioSpec, PeriodicEventsExpand) {
  Scenario s;
  s.fail_links(sec(5), 2).every(sec(4), 3);
  s.restore_links(sec(7)).every(sec(4), 3);
  s.expect_converged(sec(20), "settle");
  const auto expanded = s.expanded_events();
  ASSERT_EQ(expanded.size(), 7u);
  std::vector<Time> at;
  for (const auto& e : expanded) at.push_back(e.at);
  EXPECT_EQ(at, (std::vector<Time>{sec(5), sec(7), sec(9), sec(11), sec(13),
                                   sec(15), sec(20)}));
  // Expanded occurrences are concrete: no residual periodicity.
  for (const auto& e : expanded) {
    EXPECT_EQ(e.every, 0);
    EXPECT_EQ(e.repeat, 1);
  }
  // Occurrences keep the original event's parameters.
  EXPECT_EQ(expanded[2].kind, scenario::EventKind::FailLinks);
  EXPECT_EQ(expanded[2].count, 2);
}

TEST(ScenarioSpec, PeriodicCheckpointsGetDistinctLabels) {
  Scenario s;
  s.expect_converged(sec(1), "probe", sec(30)).every(sec(2), 3);
  const auto expanded = s.expanded_events();
  ASSERT_EQ(expanded.size(), 3u);
  EXPECT_EQ(expanded[0].label, "probe");
  EXPECT_EQ(expanded[1].label, "probe_1");
  EXPECT_EQ(expanded[2].label, "probe_2");
}

TEST(ScenarioSpec, PeriodicEventsSurviveRoundTrip) {
  Scenario s;
  s.name = "periodic";
  s.fail_links(sec(5), 1).every(sec(3), 4);
  s.expect_converged(sec(20), "settle");
  const Scenario reparsed =
      scenario::parse_spec(scenario::to_spec_json(s).dump());
  EXPECT_EQ(s, reparsed);
  EXPECT_EQ(reparsed.expanded_events().size(), 5u);
}

TEST(ScenarioSpec, PeriodicEventValidation) {
  Scenario empty;
  EXPECT_THROW(empty.every(sec(1), 2), std::logic_error);
  Scenario s;
  s.fail_links(sec(1), 1);
  EXPECT_THROW(s.every(0, 2), std::invalid_argument);
  EXPECT_THROW(s.every(sec(1), 0), std::invalid_argument);
  // Either half of a periodic spec alone is an error, not a silent one-shot.
  EXPECT_THROW(scenario::parse_spec(
                   R"({"events":[{"kind":"fail_links","repeat":3}]})"),
               std::runtime_error);
  EXPECT_THROW(scenario::parse_spec(
                   R"({"events":[{"kind":"fail_links","every_ms":4000}]})"),
               std::runtime_error);
}

TEST(ScenarioSpec, LinkFlapStormUsesPeriodicEvents) {
  const Scenario s = scenario::builtin("link_flap_storm");
  bool has_periodic = false;
  for (const auto& e : s.events) has_periodic |= e.every > 0;
  EXPECT_TRUE(has_periodic);
  EXPECT_GT(s.expanded_events().size(), s.events.size());
}

TEST(ScenarioSpec, ExpandedEventsAreStableOnTies) {
  Scenario s;
  s.expect_converged(sec(5), "before_restart");
  s.restart_nodes(sec(1)).every(sec(2), 3);  // fires at 1, 3 and 5 s
  s.expect_converged(sec(5), "after_restart");
  // Ties keep declaration order, whether an event was declared at that
  // instant or reaches it by repetition.
  std::vector<std::pair<scenario::EventKind, Time>> got;
  for (const auto& e : s.expanded_events()) got.emplace_back(e.kind, e.at);
  using K = scenario::EventKind;
  const std::vector<std::pair<K, Time>> want = {
      {K::RestartNodes, sec(1)},    {K::RestartNodes, sec(3)},
      {K::ExpectConverged, sec(5)}, {K::RestartNodes, sec(5)},
      {K::ExpectConverged, sec(5)}};
  EXPECT_EQ(got, want);
}

// --- Restart / restore bookkeeping -----------------------------------------

TEST(FaultRestore, ControllerRestartRestoresLinksAndConverges) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();

  const NodeId victim = faults::kill_random_controller(cp, exp.fault_rng());
  ASSERT_NE(victim, kNoNode);
  EXPECT_FALSE(exp.sim().node(victim).alive());
  ASSERT_EQ(cp.killed_nodes.size(), 1u);

  // Let the survivors absorb the failure, then revive.
  exp.sim().run_until(exp.sim().now() + sec(5));
  ASSERT_TRUE(faults::restart_node(cp, victim));
  EXPECT_TRUE(exp.sim().node(victim).alive());
  EXPECT_TRUE(cp.killed_nodes.empty());
  // The kill's collateral link damage is undone.
  for (const auto& e : exp.sim().network().adjacency(victim)) {
    EXPECT_NE(exp.sim().network().link(e.link).state(),
              net::LinkState::PermanentDown);
  }
  const auto rec = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(rec.converged) << rec.last_reason;
}

TEST(FaultRestore, RestartIsNoOpOnLiveNode) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  auto cp = exp.control_plane();
  EXPECT_FALSE(faults::restart_node(cp, exp.controller(0).id()));
}

TEST(FaultRestore, FailAndRestoreLinkRoundTrip) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();

  const auto link = faults::fail_random_link(cp, exp.fault_rng());
  ASSERT_NE(link.first, kNoNode);
  EXPECT_FALSE(exp.sim().network().link_connected(link.first, link.second));
  ASSERT_EQ(cp.failed_links.size(), 1u);

  EXPECT_TRUE(faults::restore_link(cp, link.first, link.second));
  EXPECT_TRUE(exp.sim().network().link_operational(link.first, link.second));
  EXPECT_TRUE(cp.failed_links.empty());
  // Restoring an up link reports false.
  EXPECT_FALSE(faults::restore_link(cp, link.first, link.second));

  const auto rec = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(rec.converged) << rec.last_reason;
}

TEST(FaultRestore, StaleTimersDoNotFireAfterRevive) {
  // A timer chain scheduled before the crash must stay dead after the
  // revival (otherwise every kill+restart doubles the do-forever rate).
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  const NodeId victim = faults::kill_random_controller(cp, exp.fault_rng());
  ASSERT_NE(victim, kNoNode);
  faults::restart_node(cp, victim);

  const auto& counters = exp.sim().counters();
  const auto idx = static_cast<std::size_t>(victim);
  const std::uint64_t before = counters.iterations[idx];
  const Time window = sec(5);
  exp.sim().run_until(exp.sim().now() + window);
  const std::uint64_t iters = counters.iterations[idx] - before;
  const auto expected =
      static_cast<std::uint64_t>(window / exp.config().task_delay);
  EXPECT_LE(iters, expected + 2);  // one chain, not two
  EXPECT_GE(iters, expected - 2);
}

// --- Campaign runner --------------------------------------------------------

Scenario quick_scenario() {
  Scenario s;
  s.name = "quick";
  s.description = "kill one controller, expect recovery";
  s.topologies = {"B4", "Clos"};
  s.controllers = {3};
  s.trials = 4;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.kill_controller(sec(2));
  s.expect_converged(sec(2), "recovery", sec(60));
  return s;
}

TEST(CampaignRunner, TrialSeedsAreDistinctAndStable) {
  const auto a = scenario::trial_seed(1, "B4", 3, 0);
  EXPECT_EQ(a, scenario::trial_seed(1, "B4", 3, 0));
  EXPECT_NE(a, scenario::trial_seed(1, "B4", 3, 1));
  EXPECT_NE(a, scenario::trial_seed(1, "B4", 5, 0));
  EXPECT_NE(a, scenario::trial_seed(1, "Clos", 3, 0));
  EXPECT_NE(a, scenario::trial_seed(2, "B4", 3, 0));
}

TEST(CampaignRunner, AggregatesConvergedTrials) {
  scenario::RunnerOptions opt;
  opt.threads = 2;
  const auto result = scenario::run_campaign(quick_scenario(), opt);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 4);
    ASSERT_EQ(cell.checkpoints.size(), 2u);
    EXPECT_EQ(cell.checkpoints[0].label, "bootstrap");
    EXPECT_EQ(cell.checkpoints[1].label, "recovery");
    EXPECT_EQ(cell.checkpoints[1].converged, 4) << cell.topology;
    EXPECT_GT(cell.metric("messages").summary.mean, 0);
  }
}

TEST(CampaignRunner, JsonIsIdenticalAcrossThreadCounts) {
  const Scenario s = quick_scenario();
  scenario::RunnerOptions serial;
  serial.threads = 1;
  scenario::RunnerOptions parallel;
  parallel.threads =
      std::max(2u, std::thread::hardware_concurrency());
  const std::string a = scenario::run_campaign(s, serial).to_json().pretty();
  const std::string b = scenario::run_campaign(s, parallel).to_json().pretty();
  EXPECT_EQ(a, b);
}

TEST(CampaignRunner, RejectsUnknownTopology) {
  Scenario s = quick_scenario();
  s.topologies = {"Atlantis"};
  EXPECT_THROW(scenario::run_campaign(s, {}), std::invalid_argument);
}

TEST(CampaignRunner, RawExportCarriesPerTrialSamples) {
  scenario::RunnerOptions opt;
  opt.threads = 2;
  opt.include_raw = true;
  const auto result = scenario::run_campaign(quick_scenario(), opt);
  for (const auto& cell : result.cells) {
    ASSERT_EQ(cell.raw.size(), 4u) << cell.topology;
    for (std::size_t r = 0; r < cell.raw.size(); ++r) {
      EXPECT_EQ(cell.raw[r].first, static_cast<int>(r));  // grid order
      EXPECT_EQ(cell.raw[r].second.checkpoints.size(), 2u);
    }
  }
  // The JSON rendering includes the raw array (and stays parseable).
  const auto doc = Json::parse(result.to_json().pretty());
  const auto& cell0 = doc.find("cells")->as_array()[0];
  ASSERT_NE(cell0.find("raw"), nullptr);
  EXPECT_EQ(cell0.find("raw")->as_array().size(), 4u);
}

TEST(CampaignRunner, ShardsPartitionTheGridExactly) {
  const Scenario s = quick_scenario();  // 2 topologies x 1 x 4 = 8 trials
  scenario::RunnerOptions whole;
  whole.threads = 2;
  whole.include_raw = true;
  const auto full = scenario::run_campaign(s, whole);

  // Each trial's raw record must appear in exactly one of the 3 shards and
  // match the unsharded run bit-for-bit (seeds depend only on the grid).
  std::map<std::pair<std::string, int>, int> seen;
  for (int k = 0; k < 3; ++k) {
    scenario::RunnerOptions part = whole;
    part.shard_index = k;
    part.shard_count = 3;
    const auto shard = scenario::run_campaign(s, part);
    ASSERT_EQ(shard.cells.size(), full.cells.size());
    for (std::size_t c = 0; c < shard.cells.size(); ++c) {
      for (const auto& [trial, out] : shard.cells[c].raw) {
        ++seen[{shard.cells[c].topology, trial}];
        // Compare against the same trial in the unsharded run.
        const auto& ref = full.cells[c].raw;
        const auto it =
            std::find_if(ref.begin(), ref.end(),
                         [&](const auto& p) { return p.first == trial; });
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(out.checkpoints.size(), it->second.checkpoints.size());
        for (std::size_t i = 0; i < out.checkpoints.size(); ++i) {
          EXPECT_EQ(out.checkpoints[i].seconds,
                    it->second.checkpoints[i].seconds);
        }
        EXPECT_EQ(out.messages, it->second.messages);
      }
    }
  }
  EXPECT_EQ(seen.size(), 8u);  // every (topology, trial) exactly once
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key.first << "/" << key.second;
  }
}

/// Run `s` unsharded and as `n` raw shards, each round-tripped through its
/// JSON text (as files would be); returns the unsharded report's text and
/// the parsed shards.
std::pair<std::string, std::vector<Json>> run_sharded(const Scenario& s,
                                                      int n) {
  scenario::RunnerOptions plain;
  plain.threads = 2;
  std::vector<Json> shards;
  for (int k = 0; k < n; ++k) {
    scenario::RunnerOptions part = plain;
    part.include_raw = true;
    part.shard_index = k;
    part.shard_count = n;
    shards.push_back(Json::parse(
        scenario::run_campaign(s, part).to_json().pretty()));
  }
  return {scenario::run_campaign(s, plain).to_json().pretty(),
          std::move(shards)};
}

TEST(CampaignRunner, MergeReproducesUnshardedReportByteForByte) {
  const auto [unsharded, shards] = run_sharded(quick_scenario(), 3);
  const auto merged = scenario::merge_campaigns(shards);
  EXPECT_EQ(merged.to_json().pretty(), unsharded);

  // A partial merge still aggregates (fewer trials), just not identically.
  const auto partial =
      scenario::merge_campaigns({shards[0], shards[2]});
  EXPECT_LT(partial.cells[0].trials, merged.cells[0].trials);

  // The gated watchdog and table blocks read back from raw trials too.
  for (const char* name : {"byzantine_controller", "table_overflow_recovery"}) {
    Scenario s = scenario::builtin(name);
    s.topologies = {"B4"};
    s.trials = 2;
    const auto [whole, halves] = run_sharded(s, 2);
    EXPECT_EQ(scenario::merge_campaigns(halves).to_json().pretty(), whole)
        << name;
  }
}

std::string read_test_data(const std::string& name) {
  std::ifstream in(std::string(REN_TEST_DATA_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CampaignBaseline, ReportsMatchCommittedBytes) {
  // The byte contract: each campaign re-renders exactly as its committed
  // file, written by `ren_scenarios --scenario NAME --controllers 3
  // --trials 2` with the topologies, --seed and --raw of its case. The
  // --raw campaigns carry the gated watchdog and table blocks in both cell
  // and trial form; failover_under_load is the churn-free CI baseline, and
  // cascading_switch_failures pins the switch-kill connectivity probe.
  struct Case {
    const char* file;
    const char* scenario;
    std::vector<std::string> topologies;
    std::uint64_t seed;
    bool raw;
  };
  const Case cases[] = {
      {"byzantine_controller_raw.json", "byzantine_controller", {"B4"}, 3, true},
      {"table_overflow_recovery_raw.json", "table_overflow_recovery", {"B4"}, 3,
       true},
      {"no_churn_baseline.json", "failover_under_load", {"B4", "Clos"}, 1,
       false},
      {"cascading_switch_failures_raw.json", "cascading_switch_failures",
       {"B4"}, 3, true},
  };
  for (const Case& c : cases) {
    Scenario s = scenario::builtin(c.scenario);
    s.topologies = c.topologies;
    s.controllers = {3};
    s.trials = 2;
    s.base_seed = c.seed;
    scenario::RunnerOptions opt;
    opt.threads = 1;
    opt.include_raw = c.raw;
    const std::string want = read_test_data(c.file);
    ASSERT_FALSE(want.empty()) << c.file;
    EXPECT_EQ(scenario::run_campaign(s, opt).to_json().pretty(), want)
        << c.file;
  }
}

TEST(CampaignRunner, MergeRejectsBadInput) {
  const Scenario s = quick_scenario();
  scenario::RunnerOptions raw1;
  raw1.threads = 2;
  raw1.include_raw = true;
  raw1.shard_count = 2;
  const auto shard1 =
      Json::parse(scenario::run_campaign(s, raw1).to_json().pretty());

  // Overlapping trials: the same shard twice.
  EXPECT_THROW((void)scenario::merge_campaigns({shard1, shard1}),
               std::invalid_argument);
  // A report without raw samples cannot be merged.
  scenario::RunnerOptions no_raw = raw1;
  no_raw.include_raw = false;
  no_raw.shard_index = 1;
  const auto bare =
      Json::parse(scenario::run_campaign(s, no_raw).to_json().pretty());
  EXPECT_THROW((void)scenario::merge_campaigns({bare}),
               std::invalid_argument);
  // Mismatched campaigns (different seed) don't merge.
  Scenario other = quick_scenario();
  other.base_seed = 999;
  scenario::RunnerOptions raw2 = raw1;
  raw2.shard_index = 1;
  const auto alien =
      Json::parse(scenario::run_campaign(other, raw2).to_json().pretty());
  EXPECT_THROW((void)scenario::merge_campaigns({shard1, alien}),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::merge_campaigns({}), std::invalid_argument);
}

Scenario axes_scenario() {
  Scenario s = quick_scenario();
  s.name = "quick_axes";
  s.topologies = {"B4"};
  s.trials = 2;
  s.axis("kappa", {1, 2}).axis("theta", {10, 30});
  return s;
}

TEST(CampaignRunner, AxesExpandIntoCells) {
  scenario::RunnerOptions opt;
  opt.threads = 2;
  const auto result = scenario::run_campaign(axes_scenario(), opt);
  // 1 topology x 1 controller count x (2 kappa x 2 theta) = 4 cells.
  ASSERT_EQ(result.cells.size(), 4u);
  const scenario::AxisPoint expect0{{"kappa", 1}, {"theta", 10}};
  const scenario::AxisPoint expect3{{"kappa", 2}, {"theta", 30}};
  EXPECT_EQ(result.cells[0].axes, expect0);
  EXPECT_EQ(result.cells[3].axes, expect3);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 2) << cell.topology;
    EXPECT_EQ(cell.checkpoints.size(), 2u);
  }
  // The JSON keys each cell by its axis values.
  const auto doc = Json::parse(result.to_json().pretty());
  const auto& cells = doc.find("cells")->as_array();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[1].find("axes")->find("kappa")->as_number(), 1);
  EXPECT_EQ(cells[1].find("axes")->find("theta")->as_number(), 30);
}

TEST(CampaignRunner, AxesShardMergeIsByteIdentical) {
  const Scenario s = axes_scenario();  // 4 cells x 2 trials = 8 grid points
  scenario::RunnerOptions plain;
  plain.threads = 2;
  const std::string unsharded =
      scenario::run_campaign(s, plain).to_json().pretty();
  std::vector<Json> shards;
  for (int k = 0; k < 3; ++k) {
    scenario::RunnerOptions part = plain;
    part.include_raw = true;
    part.shard_index = k;
    part.shard_count = 3;
    shards.push_back(
        Json::parse(scenario::run_campaign(s, part).to_json().pretty()));
  }
  EXPECT_EQ(scenario::merge_campaigns(shards).to_json().pretty(), unsharded);
}

TEST(CampaignRunner, TrafficWindowsAreRecordedAndMerged) {
  // A bracketed traffic window with a mid-path failure, on the fast
  // profile: the series and mean goodput must survive raw export + merge.
  Scenario s;
  s.name = "window_test";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 2;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_traffic(sec(8), "win");
  s.fail_path_link(sec(10));
  s.stop_traffic(sec(12));

  scenario::RunnerOptions opt;
  opt.threads = 2;
  const auto result = scenario::run_campaign(s, opt);
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& cell = result.cells[0];
  ASSERT_TRUE(cell.errors.empty()) << cell.errors.front();
  ASSERT_EQ(cell.windows.size(), 1u);
  EXPECT_EQ(cell.windows[0].label, "win");
  EXPECT_EQ(cell.windows[0].trials, 2);
  // The window brackets [8s, 12s): exactly 4 per-second samples, goodput
  // flowing in every one of them.
  ASSERT_EQ(cell.windows[0].mbits_series.size(), 4u);
  for (double v : cell.windows[0].mbits_series) EXPECT_GT(v, 0.0);
  EXPECT_GT(cell.windows[0].mbits.mean, 0.0);
  EXPECT_TRUE(cell.metric("traffic_mbits").reported);

  // Shard + merge reproduces the report byte-for-byte, series included.
  std::vector<Json> shards;
  for (int k = 0; k < 2; ++k) {
    scenario::RunnerOptions part = opt;
    part.include_raw = true;
    part.shard_index = k;
    part.shard_count = 2;
    shards.push_back(
        Json::parse(scenario::run_campaign(s, part).to_json().pretty()));
  }
  EXPECT_EQ(scenario::merge_campaigns(shards).to_json().pretty(),
            result.to_json().pretty());
}

TEST(CampaignRunner, RunTrialIsTheProfileOnRunTimeline) {
  // One interpreter, no fork: a campaign trial is run_timeline on the fast
  // profile seeded with trial_seed. failover_under_load has no axes, no
  // calibrate_rtt and no max_events, so the profile is all run_trial adds.
  const Scenario s = scenario::builtin("failover_under_load");
  ASSERT_TRUE(s.axes.empty());
  ASSERT_FALSE(s.calibrate_rtt);
  ASSERT_EQ(s.max_events, 0u);
  const auto via_trial = scenario::run_trial(s, "B4", 3, 0, {});
  auto cfg = sim::fast_profile("B4");
  cfg.controllers = 3;
  cfg.seed = scenario::trial_seed(s.base_seed, "B4", 3, 0);
  const auto via_timeline = scenario::run_timeline(s, cfg);
  ASSERT_TRUE(via_trial.ok) << via_trial.error;
  ASSERT_TRUE(via_timeline.ok) << via_timeline.error;
  EXPECT_EQ(via_trial.counters_fp, via_timeline.counters_fp);
  ASSERT_EQ(via_trial.windows.size(), 1u);
  // The rendering carries the checkpoints, the traffic window and every
  // report metric.
  EXPECT_EQ(scenario::trial_outcome_json(via_trial).pretty(),
            scenario::trial_outcome_json(via_timeline).pretty());
}

TEST(CampaignRunner, TimelineMayContinueAfterStopTraffic) {
  // Segments still in flight at the stop instant are delivered while the
  // timeline keeps running (the closed window's stats stay alive), and the
  // flow survives the build-time owner being killed before the window
  // opens (it is re-registered on a survivor).
  Scenario s;
  s.name = "window_then_more";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 2;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.kill_controller(sec(6));
  s.expect_converged(sec(6), "degraded", sec(60));
  s.start_traffic(sec(20), "win");
  s.stop_traffic(sec(23));
  s.fail_links(sec(25), 1);
  s.expect_converged(sec(25), "settle", sec(60));
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].errors.empty())
      << result.cells[0].errors.front();
  ASSERT_EQ(result.cells[0].windows.size(), 1u);
  EXPECT_GT(result.cells[0].windows[0].mbits.mean, 0.0);
  EXPECT_EQ(result.cells[0].checkpoints.back().label, "settle");
}

TEST(CampaignRunner, SecondTrafficWindowFailsTheTrial) {
  Scenario s;
  s.name = "two_windows";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_traffic(sec(5), "a");
  s.stop_traffic(sec(7));
  s.start_traffic(sec(9), "b");
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells[0].errors.size(), 1u);
  EXPECT_NE(result.cells[0].errors[0].find("one traffic window"),
            std::string::npos);
}

TEST(CampaignRunner, StopTrafficWithoutOpenWindowFailsTheTrial) {
  Scenario s;
  s.name = "bad_window";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.with_hosts = true;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.stop_traffic(sec(5));
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_EQ(result.cells[0].errors.size(), 1u);
  EXPECT_NE(result.cells[0].errors[0].find("no open traffic window"),
            std::string::npos);
}

TEST(CampaignRunner, RejectsBadShard) {
  scenario::RunnerOptions opt;
  opt.shard_index = 2;
  opt.shard_count = 2;
  EXPECT_THROW(scenario::run_campaign(quick_scenario(), opt),
               std::invalid_argument);
}

// --- Victims axis (count = "axis") -------------------------------------------

TEST(VictimsAxis, BuilderAcceptsSentinelAndRejectsGarbage) {
  Scenario s;
  s.kill_switches(sec(1), scenario::kCountAxis);  // ok: resolved per trial
  s.fail_links(sec(2), scenario::kCountAxis);
  s.kill_controller(sec(3), scenario::kCountAxis);
  EXPECT_THROW(s.kill_switches(sec(1), 0), std::invalid_argument);
  EXPECT_THROW(s.fail_links(sec(1), -2), std::invalid_argument);
}

TEST(VictimsAxis, SpecRoundTripUsesTheAxisKeyword) {
  Scenario s;
  s.name = "victims";
  s.axis("victims", {1, 2, 3});
  s.expect_converged(sec(0), "bootstrap", sec(30));
  s.kill_controller(sec(2), scenario::kCountAxis);
  const std::string spec = scenario::to_spec_json(s).pretty();
  EXPECT_NE(spec.find("\"count\": \"axis\""), std::string::npos);
  const Scenario reparsed = scenario::parse_spec(spec);
  EXPECT_EQ(s, reparsed);
  EXPECT_EQ(reparsed.events[1].count, scenario::kCountAxis);
}

TEST(VictimsAxis, SpecRejectsOtherStringsAndNonPositiveCounts) {
  EXPECT_THROW(scenario::parse_spec(
                   R"({"events":[{"at_ms":1000,"kind":"kill_switches","count":"many"}]})"),
               std::runtime_error);
  EXPECT_THROW(scenario::parse_spec(
                   R"({"events":[{"at_ms":1000,"kind":"kill_switches","count":0}]})"),
               std::runtime_error);
}

TEST(VictimsAxis, CampaignRejectsAxisCountWithoutVictimsAxis) {
  Scenario s;
  s.name = "missing_axis";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.kill_switches(sec(1), scenario::kCountAxis);
  EXPECT_THROW(scenario::run_campaign(s, {}), std::invalid_argument);
}

TEST(VictimsAxis, SweepRunsAsOneCampaign) {
  Scenario s;
  s.name = "victim_sweep";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.axis("victims", {1, 2});
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.fail_links(sec(2), scenario::kCountAxis);
  s.expect_converged(sec(2), "recovery", sec(60));
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& cell : result.cells) {
    ASSERT_EQ(cell.axes.size(), 1u);
    EXPECT_EQ(cell.axes[0].first, "victims");
    EXPECT_TRUE(cell.errors.empty()) << cell.errors[0];
    ASSERT_EQ(cell.checkpoints.size(), 2u);
    EXPECT_EQ(cell.checkpoints[1].converged, 1)
        << "victims=" << cell.axes[0].second;
  }
}

// --- Topology specs in scenarios ----------------------------------------------

TEST(TopologySpecs, ObjectFormsCanonicalizeToStrings) {
  const Scenario s = scenario::parse_spec(R"({
    "name": "topo_forms",
    "topologies": [
      "B4",
      {"kind": "fat_tree", "k": 8},
      {"kind": "random_wan", "nodes": 64, "m": 2, "seed": 7},
      {"kind": "file", "path": "maps/ebone.cch", "format": "rocketfuel"}
    ]
  })");
  const std::vector<std::string> expect{
      "B4", "fat_tree:k=8", "random_wan:nodes=64,m=2,seed=7",
      "rocketfuel:maps/ebone.cch"};
  EXPECT_EQ(s.topologies, expect);
}

TEST(TopologySpecs, BadObjectFormsThrow) {
  EXPECT_THROW(scenario::parse_spec(R"({"topologies":[{"kind":"warp"}]})"),
               std::runtime_error);
  EXPECT_THROW(scenario::parse_spec(R"({"topologies":[{"k": 8}]})"),
               std::runtime_error);
  EXPECT_THROW(
      scenario::parse_spec(R"({"topologies":[{"kind":"fat_tree"}]})"),
      std::runtime_error);
}

TEST(TopologySpecs, CampaignRunsOnGeneratedFabric) {
  Scenario s;
  s.name = "fat_tree_smoke";
  s.topologies = {"fat_tree:k=4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].errors.empty());
  EXPECT_EQ(result.cells[0].checkpoints[0].converged, 1);
}

// --- Known-failure regression ---------------------------------------------------

// B4 (12 switches) under the built-in cascading_switch_failures timeline:
// waves of 1 + 2 + 3 switch fail-stops. The third wave removes half the
// original fabric and the survivors do NOT re-legitimize within the
// scenario's 120 s budget — a real, reproducible limitation (the remaining
// fabric can no longer satisfy the configured kappa for every pair). This
// test pins the behavior in both directions: waves 1-2 must keep
// converging, and if wave_3 ever starts converging the scenario library's
// documentation (and this test) must be updated deliberately.
TEST(KnownFailures, B4CascadingWave3DoesNotRelegitimize) {
  Scenario s = scenario::builtin("cascading_switch_failures");
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  const auto result = scenario::run_campaign(s, {});
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& cell = result.cells[0];
  EXPECT_TRUE(cell.errors.empty());
  ASSERT_EQ(cell.checkpoints.size(), 4u);
  EXPECT_EQ(cell.checkpoints[0].label, "bootstrap");
  EXPECT_EQ(cell.checkpoints[0].converged, 1);
  EXPECT_EQ(cell.checkpoints[1].label, "wave_1");
  EXPECT_EQ(cell.checkpoints[1].converged, 1);
  EXPECT_EQ(cell.checkpoints[2].label, "wave_2");
  EXPECT_EQ(cell.checkpoints[2].converged, 1);
  EXPECT_EQ(cell.checkpoints[3].label, "wave_3");
  EXPECT_EQ(cell.checkpoints[3].converged, 0)
      << "wave_3 unexpectedly re-legitimized: the known B4 cascading-failure "
         "limitation no longer reproduces — update the scenario library "
         "docs and this regression test together";
}

}  // namespace
}  // namespace ren
