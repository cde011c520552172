// The serial simulation kernel's event order, pinned. Every trial outcome
// and the counters fingerprint are a function of the (time, lane, lane-seq)
// pop order; the campaign byte baselines cover the rendered outcomes but not
// counters_fp, so these literals are what catch a reordered event. A change
// here invalidates every recorded outcome.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "test_helpers.hpp"

namespace ren {
namespace {

struct PinnedTrial {
  const char* scenario;
  std::uint64_t counters_fp;
  std::vector<double> checkpoint_seconds;
};

TEST(SimKernel, SerialEventOrderIsPinned) {
  // rolling_restart: node kill/revive on the harness lane. byzantine_controller:
  // a global-lane adversary plus channel corruption drawn from sender streams.
  // table_overflow_recovery: harness-lane flow churn against full tables.
  const PinnedTrial pins[] = {
      {"rolling_restart",
       0x26c5c1ba3eb6de02ULL,
       {0.186203, 0.180018, 0.130067, 0.20097, 0.150982, 0.20097, 0.150972}},
      {"byzantine_controller", 0x26992d2d8727f53cULL, {0.186203, 0.080067}},
      {"table_overflow_recovery",
       0x93a5adc9f0cfe723ULL,
       {0.186203, 0.230014, 0}},
  };
  for (const PinnedTrial& pin : pins) {
    scenario::Scenario s = scenario::builtin(pin.scenario);
    s.topologies = {"B4"};
    s.controllers = {3};
    s.trials = 1;
    s.base_seed = 3;
    scenario::RunnerOptions opt;
    opt.threads = 1;
    const auto out = scenario::run_trial(s, "B4", 3, 0, opt);
    ASSERT_TRUE(out.ok) << pin.scenario << ": " << out.error;
    EXPECT_EQ(out.counters_fp, pin.counters_fp) << pin.scenario;
    std::vector<double> seconds;
    for (const auto& cp : out.checkpoints) seconds.push_back(cp.seconds);
    EXPECT_EQ(seconds, pin.checkpoint_seconds) << pin.scenario;
  }
}

// The event queue's wheel is the path the packet traffic takes: at least
// 90% of all pushes land within its span, on the fast profile's 100 us
// links and on the default 1 ms ones. Only timers may go to the far heap.
// (B4 bootstrap alone reads 90.2% on both; with ten more task rounds,
// 91.8%. The default timers are the fast ones scaled by ten, so the two
// runs push the same events.)
TEST(SimKernel, WheelTakesMostPushes) {
  sim::ExperimentConfig slow;  // default timers and 1 ms links
  slow.topology = "B4";
  slow.controllers = 3;
  for (const sim::ExperimentConfig& cfg :
       {testing::fast_config("B4", 3), slow}) {
    sim::Experiment exp(cfg);
    testing::bootstrap_or_fail(exp);
    exp.sim().run_until(exp.sim().now() + 10 * cfg.task_delay);
    const net::EventQueue& q = exp.sim().queue();
    const std::uint64_t pushes = q.executed() + q.size();
    EXPECT_GT(q.far_pushes(), 0u) << cfg.link_latency;
    EXPECT_LE(q.far_pushes() * 10, pushes)
        << cfg.link_latency << ": " << q.far_pushes() << " of " << pushes;
  }
}

// The kernel is serial; the sim_threads fields only survive for callers
// that assign them 1, and any other value is an error rather than a no-op.
TEST(SimKernel, SimThreadsOtherThanOneThrows) {
  auto cfg = testing::fast_config("B4", 3);
  cfg.sim_threads = 2;
  EXPECT_THROW(sim::Experiment{cfg}, std::invalid_argument);

  scenario::Scenario s = scenario::builtin("partition_and_heal");
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  scenario::RunnerOptions opt;
  opt.threads = 1;
  opt.sim_threads = 2;
  EXPECT_THROW((void)scenario::run_trial(s, "B4", 3, 0, opt),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::run_campaign(s, opt), std::invalid_argument);
}

}  // namespace
}  // namespace ren
