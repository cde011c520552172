// The experiment harness itself: construction invariants, determinism,
// host placement, and the measurement plumbing the benches rely on.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace ren::sim {
namespace {

using ren::testing::fast_config;

TEST(Experiment, BuildsDenseIdsInLayerOrder) {
  auto cfg = fast_config("Clos", 3);
  cfg.with_hosts = true;
  Experiment exp(cfg);
  // switches 0..19, controllers 20..22, hosts 23..24
  EXPECT_EQ(exp.switches().size(), 20u);
  EXPECT_EQ(exp.controller(0).id(), 20);
  EXPECT_EQ(exp.controller(2).id(), 22);
  EXPECT_EQ(exp.host_a()->id(), 23);
  EXPECT_EQ(exp.host_b()->id(), 24);
  EXPECT_EQ(exp.sim().node_count(), 25u);
}

TEST(Experiment, ParanoidArmsEveryOracle) {
  // The one flag shadows all three cached layers: the monitor's verdicts,
  // every controller's views and every controller's planned batches.
  auto cfg = fast_config("B4", 3);
  cfg.paranoid = true;
  Experiment exp(cfg);
  ren::testing::bootstrap_or_fail(exp);
  EXPECT_GT(exp.monitor().stats().paranoid_shadows, 0u);
  for (std::size_t k = 0; k < exp.controller_count(); ++k) {
    EXPECT_GT(exp.controller(k).view_cache().stats().paranoid_checks, 0u)
        << "controller " << k;
    EXPECT_GT(exp.controller(k).batch_planner().stats().paranoid_checks, 0u)
        << "controller " << k;
  }
}

TEST(Experiment, TransportSessionBoundFollowsNodeCount) {
  // A controller on a 4096-switch WAN has 4098 peers: a fixed bound of 4096
  // sessions dropped live sessions on every prune.
  Experiment exp(fast_config("random_wan:nodes=4096,m=2,seed=1", 3));
  const std::size_t n = exp.sim().node_count();
  ASSERT_EQ(n, 4099u);
  for (std::size_t k = 0; k < exp.controller_count(); ++k) {
    EXPECT_EQ(exp.controller(k).endpoint().max_sessions(), n);
  }
  for (const auto* s : exp.switches()) {
    ASSERT_EQ(s->endpoint().max_sessions(), n) << "switch " << s->id();
  }
}

TEST(Experiment, ControllersAttachToKappaPlusOneSwitches) {
  for (int kappa : {0, 1, 2, 3}) {
    auto cfg = fast_config("Telstra", 2, kappa);
    Experiment exp(cfg);
    for (std::size_t k = 0; k < exp.controller_count(); ++k) {
      const auto adj = exp.sim().network().adjacency(exp.controller(k).id());
      EXPECT_EQ(adj.size(), static_cast<std::size_t>(kappa + 1));
    }
  }
}

TEST(Experiment, ControllerAttachmentsStableAcrossControllerCounts) {
  // Fig. 6 varies the controller count; earlier controllers must keep
  // their attachment points so the sweep is comparable.
  auto cfg3 = fast_config("Telstra", 3);
  auto cfg5 = fast_config("Telstra", 5);
  Experiment a(cfg3), b(cfg5);
  for (int k = 0; k < 3; ++k) {
    const auto adj_a = a.sim().network().adjacency(a.controller(static_cast<std::size_t>(k)).id());
    const auto adj_b = b.sim().network().adjacency(b.controller(static_cast<std::size_t>(k)).id());
    ASSERT_EQ(adj_a.size(), adj_b.size());
    for (std::size_t i = 0; i < adj_a.size(); ++i) {
      EXPECT_EQ(adj_a[i].neighbor, adj_b[i].neighbor);
    }
  }
}

TEST(Experiment, HostsSitAtMaximumDistance) {
  auto cfg = fast_config("B4", 1);
  cfg.with_hosts = true;
  Experiment exp(cfg);
  const auto d = ren::testing::flat_of(exp.topology().switch_graph)
                     .distances(exp.host_a()->attach());
  EXPECT_EQ(d[static_cast<std::size_t>(exp.host_b()->attach())],
            exp.topology().expected_diameter);
}

TEST(Experiment, RunsAreDeterministicPerSeed) {
  auto run_once = [] {
    Experiment exp(fast_config("B4", 3, 2, 77));
    const auto r = exp.run_until_legitimate(sec(60));
    return std::make_tuple(r.seconds, exp.sim().events_executed(),
                           exp.sim().counters().packets_sent);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Experiment, DifferentSeedsDiverge) {
  auto events_for = [](std::uint64_t seed) {
    Experiment exp(fast_config("B4", 3, 2, seed));
    (void)exp.run_until_legitimate(sec(60));
    return exp.sim().events_executed();
  };
  EXPECT_NE(events_for(1), events_for(2));
}

TEST(Experiment, ConvergenceResultCountsPerController) {
  Experiment exp(fast_config("B4", 3));
  const auto r = exp.run_until_legitimate(sec(60));
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.iterations.size(), 3u);
  ASSERT_EQ(r.messages.size(), 3u);
  ASSERT_EQ(r.commands.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GT(r.iterations[k], 0u);
    EXPECT_GT(r.messages[k], 0u);
    EXPECT_GT(r.commands[k], r.messages[k]);  // several commands per batch
  }
}

TEST(Experiment, MeasurementWindowsAreDeltas) {
  Experiment exp(fast_config("B4", 2));
  const auto r1 = exp.run_until_legitimate(sec(60));
  ASSERT_TRUE(r1.converged);
  // A second, immediate measurement sees only the new window's traffic.
  const auto r2 = exp.run_until_legitimate(sec(5));
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.messages[0], r1.messages[0]);
}

TEST(Experiment, ControlPlaneProtectsHostAttachSwitches) {
  auto cfg = fast_config("B4", 2);
  cfg.with_hosts = true;
  Experiment exp(cfg);
  const auto cp = exp.control_plane();
  ASSERT_EQ(cp.protected_switches.size(), 2u);
  // Repeated switch killing never takes a protected one.
  auto mutable_cp = exp.control_plane();
  for (int i = 0; i < 4; ++i) {
    const NodeId victim = faults::kill_random_switch(mutable_cp, exp.fault_rng());
    if (victim == kNoNode) break;
    EXPECT_NE(victim, exp.host_a()->attach());
    EXPECT_NE(victim, exp.host_b()->attach());
  }
}

TEST(Experiment, UnknownTopologyThrows) {
  auto cfg = fast_config("B4", 1);
  cfg.topology = "no-such-network";
  EXPECT_THROW(Experiment exp(cfg), std::invalid_argument);
}

TEST(Experiment, AutoMaxRepliesIsGenerous) {
  // The auto-derived replyDB bound must never trigger C-resets in a fault
  // free run (Lemma 2's 2(N_C+N_S) plus slack).
  Experiment exp(fast_config("EBONE", 3));
  (void)exp.run_until_legitimate(sec(120));
  for (std::size_t k = 0; k < exp.controller_count(); ++k) {
    EXPECT_EQ(exp.controller(k).c_resets(), 0u);
  }
}

}  // namespace
}  // namespace ren::sim
