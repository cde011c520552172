// Shared helpers for the Renaissance test suite.
#pragma once

#include <gtest/gtest.h>

#include "renaissance.hpp"

namespace ren::testing {

/// Experiment configuration scaled down for fast tests: the algorithm is
/// timer-rate oblivious (Section 3), so shrinking every interval by 10x
/// only compresses simulated wall-clock, not the logic under test.
inline sim::ExperimentConfig fast_config(const std::string& topology,
                                         int controllers, int kappa = 2,
                                         std::uint64_t seed = 1) {
  sim::ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.controllers = controllers;
  cfg.kappa = kappa;
  cfg.seed = seed;
  cfg.task_delay = msec(50);
  cfg.detect_interval = msec(10);
  cfg.monitor_interval = msec(25);
  cfg.link_latency = usec(100);
  cfg.theta = 10;
  return cfg;
}

/// Bootstrap to a legitimate state or fail the test.
inline void bootstrap_or_fail(sim::Experiment& exp, Time limit = sec(60)) {
  const auto r = exp.run_until_legitimate(limit);
  ASSERT_TRUE(r.converged) << "bootstrap failed: " << r.last_reason;
}

/// Runs trial `trial` of every built-in fault timeline on B4 with
/// RunnerOptions::paranoid, which arms all three in-process differentials:
/// the incremental legitimacy monitor against its full check, and each
/// controller's cached views and planned batches against from-scratch
/// builds. A divergence throws inside the trial and surfaces as !ok.
inline void expect_builtin_timelines_pass_paranoid(int trial) {
  scenario::RunnerOptions opt;
  opt.threads = 1;
  opt.paranoid = true;
  for (const auto& name : scenario::builtin_names()) {
    scenario::Scenario s = scenario::builtin(name);
    s.topologies = {"B4"};
    s.controllers = {3};
    s.trials = trial + 1;
    const auto out = scenario::run_trial(s, "B4", 3, trial, opt);
    EXPECT_TRUE(out.ok) << name << " trial " << trial << ": " << out.error;
  }
}

}  // namespace ren::testing
