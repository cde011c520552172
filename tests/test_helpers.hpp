// Shared helpers for the Renaissance test suite.
#pragma once

#include <gtest/gtest.h>

#include "renaissance.hpp"

namespace ren::testing {

/// The fast timer profile (sim::fast_profile) with the given fabric,
/// controller count, kappa and seed.
inline sim::ExperimentConfig fast_config(const std::string& topology,
                                         int controllers, int kappa = 2,
                                         std::uint64_t seed = 1) {
  sim::ExperimentConfig cfg = sim::fast_profile(topology);
  cfg.controllers = controllers;
  cfg.kappa = kappa;
  cfg.seed = seed;
  return cfg;
}

/// fast_config with ExperimentConfig::paranoid: the monitor, every
/// controller's view cache and every batch planner shadow each result with
/// their from-scratch oracle and throw on divergence.
inline sim::ExperimentConfig paranoid_config(const std::string& topology,
                                             int controllers,
                                             std::uint64_t seed = 1) {
  sim::ExperimentConfig cfg = fast_config(topology, controllers, 2, seed);
  cfg.paranoid = true;
  return cfg;
}

/// A FlatView snapshot of `g` (index i is node i), for the graph
/// algorithms, which all run on FlatView.
inline flows::FlatView flat_of(const flows::Graph& g) {
  flows::FlatView flat;
  flat.assign(g);
  return flat;
}

/// Bootstrap to a legitimate state or fail the test.
inline void bootstrap_or_fail(sim::Experiment& exp, Time limit = sec(60)) {
  const auto r = exp.run_until_legitimate(limit);
  ASSERT_TRUE(r.converged) << "bootstrap failed: " << r.last_reason;
}

/// Runs trial `trial` of every built-in fault timeline on B4 with
/// RunnerOptions::paranoid, which arms all in-process differentials: the
/// incremental legitimacy monitor against its full check, its reference
/// compiles against RuleCompiler::compile_oracle, and each controller's
/// cached views and planned batches against from-scratch builds. A
/// divergence throws std::logic_error out of the trial and fails the test.
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
