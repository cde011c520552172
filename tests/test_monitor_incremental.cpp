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
using ren::testing::paranoid_config;

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
  EXPECT_EQ(after.full_evaluations, before.full_evaluations);
  EXPECT_EQ(after.truth_rebuilds, before.truth_rebuilds);
}

TEST(MonitorIncremental, SteadyStateShortCircuitsOnLargeNetworks) {
  // ATT and EBONE are where an O(network)-per-sample monitor dominated
  // trial wall time. Once the system settles, every sample must replay the
  // cached verdict, with no full evaluation and no truth rebuild, and the
  // from-scratch check_full() must agree with it.
  for (const std::string topology : {"ATT", "EBONE"}) {
    SCOPED_TRACE(topology);
    sim::Experiment exp(fast_config(topology, 3));
    bootstrap_or_fail(exp, sec(600));
    // Settle: drain in-flight chatter until the stack epoch stops moving.
    std::uint64_t epoch = exp.monitor().stack_epoch();
    for (int i = 0; i < 50; ++i) {
      exp.sim().run_until(exp.sim().now() + exp.config().task_delay);
      const std::uint64_t e = exp.monitor().stack_epoch();
      if (e == epoch && exp.monitor().check().legitimate) break;
      epoch = e;
    }
    const auto before = exp.monitor().stats();
    constexpr std::uint64_t kSamples = 40;
    for (std::uint64_t i = 0; i < kSamples; ++i) {
      exp.sim().run_until(exp.sim().now() + exp.config().monitor_interval);
      ASSERT_TRUE(exp.monitor().check().legitimate) << "sample " << i;
    }
    const auto after = exp.monitor().stats();
    EXPECT_EQ(after.short_circuits - before.short_circuits, kSamples);
    EXPECT_EQ(after.full_evaluations, before.full_evaluations);
    EXPECT_EQ(after.truth_rebuilds, before.truth_rebuilds);
    const auto full = exp.monitor().check_full();
    EXPECT_TRUE(full.legitimate) << full.reason;
  }
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
  const auto stats_before = exp.monitor().stats();
  EXPECT_FALSE(exp.monitor().check().legitimate);
  // A switch-only tamper costs one full evaluation on the cached truth and
  // the cached reference compilations.
  const auto stats_after = exp.monitor().stats();
  EXPECT_EQ(stats_after.full_evaluations - stats_before.full_evaluations, 1u);
  EXPECT_EQ(stats_after.truth_rebuilds, stats_before.truth_rebuilds);
  EXPECT_EQ(stats_after.reference_compiles, stats_before.reference_compiles);
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;

  // Stale content under the right owners reaches the rule compare, which
  // must reuse the cached reference compilation.
  const NodeId cid = exp.controller(0).id();
  auto current = sw->rule_table().newest_rules_of(cid);
  ASSERT_NE(current, nullptr);
  auto mutated = std::make_shared<proto::RuleList>(*current);
  ASSERT_FALSE(mutated->empty());
  (*mutated)[0].fwd = (*mutated)[0].fwd == 0 ? 1 : 0;
  const auto meta = sw->rule_table().meta_tag(cid);
  ASSERT_TRUE(meta.has_value());
  sw->rule_table().update_rules(cid, mutated, *meta);
  const auto stale_before = exp.monitor().stats();
  const auto stale = exp.monitor().check();
  EXPECT_FALSE(stale.legitimate);
  EXPECT_NE(stale.reason.find("stale rules"), std::string::npos)
      << stale.reason;
  const auto stale_after = exp.monitor().stats();
  EXPECT_EQ(stale_after.full_evaluations - stale_before.full_evaluations, 1u);
  EXPECT_EQ(stale_after.truth_rebuilds, stale_before.truth_rebuilds);
  EXPECT_EQ(stale_after.reference_compiles, stale_before.reference_compiles);
}

TEST(MonitorIncremental, DataFlowRegistrationRecompilesOnlyItsOwner) {
  // The reference cache is keyed on the data-flow revision as well as the
  // truth: a flow registered after convergence must recompile its owner's
  // reference (and only that one), so the owner's switches, which do not
  // carry the flow yet, read stale until the owner's next refresh.
  auto cfg = paranoid_config("B4", 3);
  cfg.with_hosts = true;
  sim::Experiment exp(cfg);
  bootstrap_or_fail(exp);
  ASSERT_TRUE(exp.monitor().check().legitimate);
  const auto before = exp.monitor().stats();
  exp.register_default_data_flow();
  EXPECT_FALSE(exp.monitor().check().legitimate);
  EXPECT_EQ(exp.monitor().stats().reference_compiles - before.reference_compiles,
            1u);
  const auto r = exp.run_until_legitimate(sec(30));
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
