// The benchmark's workloads, and the traced replay of one trial.
//
// The untraced run executes a workload through scenario::run_trial, the
// entry point ren_scenarios uses. The traced replay re-executes the same
// trial timeline through public calls only (sim::Experiment,
// Simulator::run_until, LegitimacyMonitor::check, faults::*,
// flows::ChurnGenerator, switchd::RuleTable) with the controller probes
// attached, so every layer is timed from outside at its boundary. The
// replay mirrors the runner's trial executor; the fidelity gate (identical
// Counters fingerprint and checkpoint seconds) proves that it still does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "renaissance.hpp"
#include "trace.hpp"

namespace renbench {

namespace core = ren::core;
namespace scenario = ren::scenario;
namespace sim = ren::sim;

struct Workload {
  std::string name;
  scenario::Scenario scenario;  ///< timeline; base_seed = the --seed value
  std::string topology;
  int controllers = 3;
  scenario::AxisPoint axes;
  int kappa = 2;              ///< resilience the trial runs at
  int fabric_kappa = 2;       ///< achievable_kappa() must reach this after
                              ///< bootstrap (an output check)
  double table_capacity = 0;  ///< > 0: churn workload with this capacity
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The ExperimentConfig run_trial builds for trial `trial` of `w`: the fast
/// timer profile with the workload's axes applied, serial kernel.
[[nodiscard]] sim::ExperimentConfig trial_config(const Workload& w, int trial);

/// Output checks shared by both runs; returns "" when the trial is correct,
/// else the first failed check.
[[nodiscard]] std::string check_outcome(const Workload& w,
                                        const scenario::TrialOutcome& out);

/// Sum of the checkpoints' simulated convergence seconds.
[[nodiscard]] double converge_seconds(const scenario::TrialOutcome& out);

struct ReplayResult {
  scenario::TrialOutcome outcome;  ///< checkpoints, table, counters_fp
  double wall_s = 0;               ///< construction + timeline + teardown
  int achievable_kappa = -1;       ///< after the bootstrap checkpoint
  std::uint64_t recompiles = 0;    ///< bodies that swapped current_flows()
  std::uint64_t steady = 0;        ///< bodies with unchanged flows
  core::PlannerStats planner;      ///< summed over controllers
  core::ViewCache::Stats views;    ///< summed over controllers
  core::LegitimacyMonitor::Stats monitor;
  std::uint64_t retransmissions = 0;  ///< summed over controller endpoints
  std::uint64_t events = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t drops = 0;
  std::uint64_t evictions = 0;         ///< flow-store pressure evictions
  std::uint64_t overflow_rejects = 0;  ///< flow entries refused
  std::uint64_t lookup_cost = 0;       ///< modeled packet-path lookup cost
  std::int64_t excluded_ns = 0;        ///< untimed checks in the timeline
};

/// Replay trial `trial` of `w` under `tracer`. After the timeline, compiles
/// each controller's rules on the converged true view once (CompileReplay
/// spans, outside wall_s).
[[nodiscard]] ReplayResult replay_trial(const Workload& w, int trial,
                                        Tracer& tracer);

}  // namespace renbench
