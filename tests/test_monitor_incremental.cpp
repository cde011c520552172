// The incremental (epoch-gated) legitimacy monitor must be observationally
// equivalent to a fresh full evaluation of Definition 1 — under clean
// bootstraps, under randomized fault storms, and across the built-in
// scenario timelines. These tests drive Config::paranoid (check() throws on
// any divergence) and additionally assert the incremental machinery really
// is incremental: steady-state samples short-circuit instead of re-deriving
// the world.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace ren::core {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;

sim::ExperimentConfig paranoid_config(const std::string& topology,
                                      int controllers,
                                      std::uint64_t seed = 1) {
  auto cfg = fast_config(topology, controllers, 2, seed);
  cfg.monitor_paranoid = true;
  return cfg;
}

TEST(MonitorIncremental, ParanoidBootstrapAgrees) {
  sim::Experiment exp(paranoid_config("B4", 3));
  // Every sample on the way to legitimacy runs the differential; a
  // divergence throws out of check() and fails the bootstrap.
  bootstrap_or_fail(exp);
  EXPECT_GT(exp.monitor().stats().paranoid_shadows, 0u);
}

TEST(MonitorIncremental, SteadyStateShortCircuits) {
  sim::Experiment exp(fast_config("B4", 3));
  bootstrap_or_fail(exp);
  // Let in-flight protocol chatter settle onto the converged fixed point.
  for (int i = 0; i < 10; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
    ASSERT_TRUE(exp.monitor().check().legitimate);
  }
  const auto before = exp.monitor().stats();
  const std::uint64_t epoch = exp.monitor().stack_epoch();
  for (int i = 0; i < 20; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
    ASSERT_TRUE(exp.monitor().check().legitimate);
  }
  const auto after = exp.monitor().stats();
  // A converged system bumps no epochs, so every sample replays the verdict.
  EXPECT_EQ(exp.monitor().stack_epoch(), epoch);
  EXPECT_EQ(after.short_circuits - before.short_circuits, 20u);
  EXPECT_EQ(after.truth_rebuilds, before.truth_rebuilds);
  EXPECT_EQ(after.view_compares, before.view_compares);
  EXPECT_EQ(after.rule_compares, before.rule_compares);
  EXPECT_EQ(after.walk_sweeps, before.walk_sweeps);
}

TEST(MonitorIncremental, EpochsReactToFaults) {
  sim::Experiment exp(fast_config("B4", 3));
  bootstrap_or_fail(exp);
  const std::uint64_t settled = exp.monitor().stack_epoch();
  exp.sim().kill_node(exp.controller(2).id());
  EXPECT_GT(exp.monitor().stack_epoch(), settled)
      << "kill must bump the topology epoch";
  const auto st = exp.monitor().check();
  EXPECT_FALSE(st.legitimate);
  // The system re-converges and the incremental verdict flips with it.
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

TEST(MonitorIncremental, DifferentialFaultStorm) {
  // Randomized storm: benign faults, revivals and transient corruption in
  // random order, with the paranoid differential live at every sample.
  sim::Experiment exp(paranoid_config("Clos", 3, /*seed=*/7));
  bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  Rng storm(0xfa57'57a7ULL);
  for (int round = 0; round < 8; ++round) {
    switch (storm.next_below(5)) {
      case 0:
        faults::kill_random_controllers(cp, storm, 1);
        break;
      case 1:
        faults::kill_random_switches(cp, storm, 1);
        break;
      case 2:
        faults::fail_random_links(cp, storm, 2, /*keep_connected=*/true);
        break;
      case 3:
        faults::corrupt_all_state(cp, storm);
        break;
      case 4:
        faults::restart_all_nodes(cp);
        faults::restore_all_links(cp);
        break;
    }
    // Sample aggressively through the repair window — every check is
    // shadowed by a full evaluation and throws on divergence.
    for (int i = 0; i < 40; ++i) {
      exp.sim().run_until(exp.sim().now() + msec(25));
      ASSERT_NO_THROW((void)exp.monitor().check());
    }
  }
  faults::restart_all_nodes(cp);
  faults::restore_all_links(cp);
  const auto r = exp.run_until_legitimate(sec(120));
  EXPECT_TRUE(r.converged) << r.last_reason;
  EXPECT_GT(exp.monitor().stats().paranoid_shadows, 300u);
}

TEST(MonitorIncremental, DirectTamperingIsCaughtThroughEpochs) {
  // Out-of-protocol mutations (what the legitimacy tests inject) must bump
  // epochs too — otherwise the cached verdict would go stale.
  sim::Experiment exp(paranoid_config("B4", 2));
  bootstrap_or_fail(exp);
  ASSERT_TRUE(exp.monitor().check().legitimate);
  auto* sw = exp.switches()[4];
  const std::uint64_t before = exp.monitor().stack_epoch();
  auto ghost = std::make_shared<proto::RuleList>();
  ghost->push_back(proto::Rule{77, sw->id(), 1, 2, 3, 0});
  sw->rule_table().new_round(77, proto::Tag{77, 1}, 2);
  sw->rule_table().update_rules(77, ghost, proto::Tag{77, 1});
  EXPECT_GT(exp.monitor().stack_epoch(), before);
  EXPECT_FALSE(exp.monitor().check().legitimate);
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

TEST(MonitorIncremental, FullCheckMatchesIncrementalVerdictAcrossRecovery) {
  // Belt-and-suspenders differential without paranoid mode: drive a
  // recovery and compare verdicts explicitly at every sample.
  sim::Experiment exp(fast_config("Telstra", 3, 2, /*seed=*/3));
  bootstrap_or_fail(exp);
  exp.sim().kill_node(exp.controller(1).id());
  for (int i = 0; i < 200; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(25));
    const auto inc = exp.monitor().check();
    const auto full = exp.monitor().check_full();
    ASSERT_EQ(inc.legitimate, full.legitimate)
        << "sample " << i << ": incremental='" << inc.reason << "' full='"
        << full.reason << "'";
    if (inc.legitimate) break;
  }
}

TEST(MonitorIncremental, ScenarioTimelinesPassParanoid) {
  // Trial 0 of every built-in fault timeline with the monitor differential
  // (and, through RunnerOptions::paranoid, the view and batch ones) live.
  ren::testing::expect_builtin_timelines_pass_paranoid(/*trial=*/0);
}

}  // namespace
}  // namespace ren::core
