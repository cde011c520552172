// Integration: recovery from benign failures (paper Section 6.4.2 as
// correctness tests) — controller fail-stop, switch fail-stop, link
// failures, combinations.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace ren::sim {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;

TEST(Recovery, SingleControllerFailStop) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Experiment exp(fast_config("B4", 3, 2, seed));
    bootstrap_or_fail(exp);
    auto cp = exp.control_plane();
    const NodeId victim = faults::kill_random_controller(cp, exp.fault_rng());
    ASSERT_NE(victim, kNoNode);
    const auto r = exp.run_until_legitimate(sec(60));
    EXPECT_TRUE(r.converged) << "seed " << seed << ": " << r.last_reason;
  }
}

TEST(Recovery, ManyControllersFailSimultaneously) {
  // Fig. 11: kill 1..nc-1 controllers at once.
  for (int kills : {2, 4, 6}) {
    Experiment exp(fast_config("Telstra", 7, 2, 3));
    bootstrap_or_fail(exp);
    auto cp = exp.control_plane();
    const auto victims =
        faults::kill_random_controllers(cp, exp.fault_rng(), kills);
    ASSERT_EQ(static_cast<int>(victims.size()), kills);
    const auto r = exp.run_until_legitimate(sec(90));
    EXPECT_TRUE(r.converged) << kills << " kills: " << r.last_reason;
  }
}

TEST(Recovery, LastControllerIsNeverKilled) {
  Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  EXPECT_NE(faults::kill_random_controller(cp, exp.fault_rng()), kNoNode);
  EXPECT_EQ(faults::kill_random_controller(cp, exp.fault_rng()), kNoNode);
}

TEST(Recovery, SwitchFailStop) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Experiment exp(fast_config("Clos", 3, 1, seed));
    bootstrap_or_fail(exp);
    auto cp = exp.control_plane();
    const NodeId victim = faults::kill_random_switch(cp, exp.fault_rng());
    ASSERT_NE(victim, kNoNode) << "seed " << seed;
    const auto r = exp.run_until_legitimate(sec(60));
    EXPECT_TRUE(r.converged) << "seed " << seed << ": " << r.last_reason;
    // The dead switch's reply must be flushed from every view.
    for (std::size_t k = 0; k < exp.controller_count(); ++k) {
      EXPECT_FALSE(exp.controller(k).fused_view().has_node(victim));
    }
  }
}

TEST(Recovery, SingleLinkFailure) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Experiment exp(fast_config("B4", 3, 2, seed));
    bootstrap_or_fail(exp);
    auto cp = exp.control_plane();
    const auto link = faults::fail_random_link(cp, exp.fault_rng());
    ASSERT_NE(link.first, kNoNode);
    const auto r = exp.run_until_legitimate(sec(60));
    EXPECT_TRUE(r.converged) << "seed " << seed << ": " << r.last_reason;
  }
}

TEST(Recovery, MultipleLinkFailures) {
  // Fig. 14: 2/4/6 simultaneous permanent link failures.
  for (int count : {2, 4, 6}) {
    Experiment exp(fast_config("Telstra", 3, 2, count));
    bootstrap_or_fail(exp);
    auto cp = exp.control_plane();
    const auto links = faults::fail_random_links(cp, exp.fault_rng(), count);
    EXPECT_GE(static_cast<int>(links.size()), 1);
    const auto r = exp.run_until_legitimate(sec(90));
    EXPECT_TRUE(r.converged) << count << " links: " << r.last_reason;
  }
}

TEST(Recovery, SequentialFaultStorm) {
  // Several benign faults in sequence, recovery in between each.
  Experiment exp(fast_config("EBONE", 4, 2, 11));
  ASSERT_NO_FATAL_FAILURE(bootstrap_or_fail(exp, sec(120)));
  auto cp = exp.control_plane();
  faults::fail_random_link(cp, exp.fault_rng());
  ASSERT_NO_FATAL_FAILURE(bootstrap_or_fail(exp, sec(90)));
  faults::kill_random_controller(cp, exp.fault_rng());
  ASSERT_NO_FATAL_FAILURE(bootstrap_or_fail(exp, sec(90)));
  faults::kill_random_switch(cp, exp.fault_rng());
  ASSERT_NO_FATAL_FAILURE(bootstrap_or_fail(exp, sec(90)));
}

TEST(Recovery, TransientLinkFlapHealsWithoutReconfiguration) {
  // A short transient failure (below the suspicion threshold) must not
  // change any configuration: fast failover handles it in the data plane.
  Experiment exp(fast_config("Clos", 2, 1, 4));
  bootstrap_or_fail(exp);
  auto* link = exp.sim().network().find_link(8, 16);  // agg-core link
  ASSERT_NE(link, nullptr);
  link->set_state(net::LinkState::TransientDown);
  exp.sim().run_until(exp.sim().now() + msec(30));  // < theta*detect
  link->set_state(net::LinkState::Up);
  exp.sim().run_until(exp.sim().now() + msec(200));
  const auto st = exp.monitor().check();
  EXPECT_TRUE(st.legitimate) << st.reason;
}

TEST(Recovery, FaultInjectorPreservesConnectivity) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Experiment exp(fast_config("Telstra", 3, 2, seed));
    auto cp = exp.control_plane();
    faults::fail_random_links(cp, exp.fault_rng(), 6);
    faults::kill_random_switch(cp, exp.fault_rng());
    const auto view = faults::control_topology(cp);
    ASSERT_GT(view.node_count(), 0u);
    EXPECT_EQ(view.reachable_set(view.nodes().begin()->first).size(),
              view.node_count())
        << "injector disconnected the control plane, seed " << seed;
  }
}

}  // namespace
}  // namespace ren::sim
