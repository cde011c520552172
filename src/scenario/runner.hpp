// The campaign runner: expands a Scenario over its parameter grid
// (topology x controller-count x generic axes x seed), executes the trials
// on a thread pool — each trial is one Experiment on the serial simulation
// kernel, so the paper's interleaving model is preserved inside a trial
// while the campaign uses every core — and aggregates the per-trial
// measurements into percentile summaries with a deterministic JSON
// rendering.
//
// Determinism contract: a campaign's JSON output depends only on the
// scenario (including base_seed) and the timer profile, never on the thread
// count. Every trial derives its own RNG streams from the (scenario seed,
// topology, controllers, trial index) tuple — axis points deliberately share
// seeds so sweeps are paired — and aggregation happens in grid order after
// all workers join.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace ren::scenario {

struct RunnerOptions {
  int threads = 0;  ///< worker count; 0 = hardware concurrency
  /// false (default): the fast timer profile the test suite uses (task delay
  /// 50 ms, detection 10 ms) — the algorithm is timer-rate oblivious, so this
  /// only compresses simulated wall-clock. true: the paper's Section 6.3
  /// timers (500 ms / 100 ms), for figures meant to match the paper's axes.
  bool paper_timers = false;
  /// Differential-test mode: every cached layer runs its from-scratch
  /// oracle alongside and fails the trial on divergence — the incremental
  /// legitimacy verdict against a full check, each controller's res/fusion
  /// views against fresh builds, and each planned outbound batch against a
  /// from-scratch build with a byte-equal wire encoding.
  bool paranoid = false;
  /// Attach raw per-trial samples to each cell (and its JSON) instead of
  /// only the percentile aggregates.
  bool include_raw = false;
  /// Shard k-of-n: run only grid points whose index ≡ shard_index (mod
  /// shard_count). Trial seeds depend only on grid coordinates, so the
  /// union of all n shard reports equals the unsharded campaign.
  int shard_index = 0;  ///< 0-based, < shard_count
  int shard_count = 1;
  /// Must be 1 (run_trial/run_campaign throw std::invalid_argument
  /// otherwise): the simulation kernel is serial. Kept only for callers that
  /// still assign it; goes with the next change to the benchmark.
  int sim_threads = 1;
};

/// One concrete point of the generic axes: (axis name, value) in the
/// scenario's axis declaration order. Empty when the scenario has no axes.
using AxisPoint = std::vector<std::pair<std::string, double>>;

/// One executed trial (a single seeded run of the scenario timeline).
struct TrialOutcome {
  struct Checkpoint {
    std::string label;
    bool converged = false;
    double seconds = 0;  ///< convergence time, or the limit when it failed
    /// Fig. 9's normalized communication cost over the checkpoint's wait:
    /// max over controllers of commands / iterations / node-count.
    double cmd_per_node_iter = 0;
  };
  /// One closed traffic window (start_traffic .. stop_traffic / trial end):
  /// per-second series after the paper's Figs. 15/16/18-20 plus the mean
  /// goodput over the whole window.
  struct TrafficWindow {
    std::string label;
    int seconds = 0;           ///< whole seconds the window spans
    double mbits = 0;          ///< mean goodput over the window
    std::vector<double> mbits_series;
    std::vector<double> retx_pct;  ///< retransmitted-packet % (Fig. 18)
    std::vector<double> bad_pct;   ///< "BAD TCP" % (Fig. 19)
    std::vector<double> ooo_pct;   ///< out-of-order % (Fig. 20)
  };
  bool ok = false;    ///< false: the trial threw (error holds the message)
  std::string error;
  std::vector<Checkpoint> checkpoints;
  std::vector<TrafficWindow> windows;
  // The scalar metrics from here to tbl_lookup_cost reach the report
  // through the metric table in runner.cpp (JSON key, block, gate).
  double messages = 0;   ///< control messages originated by controllers
  double commands = 0;   ///< controller commands issued
  double illegitimate_deletions = 0;  ///< deletions that hit live peers
  bool has_traffic = false;
  double traffic_mbits = 0;  ///< mean goodput of the first traffic window
  /// Stabilization-watchdog record (LegitimacyMonitor layered over the
  /// adversary window). Present — and emitted in the JSON — only for trials
  /// whose scenario contains a StartAdversary event, so benign campaigns
  /// stay byte-identical to pre-watchdog reports.
  bool has_watchdog = false;
  double wd_below_s = 0;   ///< simulated seconds below legitimacy (after the
                           ///< first legitimate sample)
  double wd_episodes = 0;  ///< distinct legitimate->illegitimate transitions
  double wd_blast_radius = 0;  ///< max fraction of switches whose rule/
                               ///< manager state diverged while adversarial
  bool wd_restabilized = false;  ///< legitimate again after the last
                                 ///< stop_adversary
  /// Rule-table / flow-churn record (flows/churn.hpp workload over the
  /// capacity-limited switchd::RuleTable). Present — and emitted in the
  /// JSON — only for trials whose scenario contains a StartFlowChurn event,
  /// so churn-free campaigns stay byte-identical to pre-churn reports.
  bool has_table = false;
  double tbl_arrivals = 0;     ///< cumulative generator flow arrivals
  double tbl_departures = 0;   ///< flows removed (natural end or flush)
  double tbl_peak_active = 0;  ///< peak concurrently active flows
  double tbl_installs = 0;     ///< flow-entry installs, summed over switches
  double tbl_overflows = 0;    ///< overflow rejections, summed over switches
  double tbl_evictions = 0;    ///< pressure evictions, summed over switches
  double tbl_peak_rules = 0;   ///< max per-switch peak table occupancy
  double tbl_lookups = 0;      ///< forwarding-path lookups, summed
  double tbl_lookup_cost = 0;  ///< modeled lookup cost, summed
  /// Order-independent digest of the trial's final simulator Counters. Not
  /// part of the JSON rendering (shard-merged reports stay byte-identical);
  /// pinned by the kernel event-order test.
  std::uint64_t counters_fp = 0;
};

/// Aggregates for one (topology, controllers, axis point) grid cell.
struct CellResult {
  std::string topology;
  int controllers = 0;
  AxisPoint axes;  ///< this cell's generic-axis values (empty: no axes)
  int trials = 0;  ///< trials that ran to completion
  struct CheckpointAgg {
    std::string label;
    int converged = 0;
    int trials = 0;
    PercentileSummary seconds;
    PercentileSummary cmd_per_node_iter;
  };
  std::vector<CheckpointAgg> checkpoints;
  /// Per traffic-window label: summary of per-trial mean goodput plus
  /// per-second series averaged element-wise over the trials that reached
  /// that second.
  struct WindowAgg {
    std::string label;
    int trials = 0;
    PercentileSummary mbits;
    std::vector<double> mbits_series;
    std::vector<double> retx_pct;
    std::vector<double> bad_pct;
    std::vector<double> ooo_pct;
  };
  std::vector<WindowAgg> windows;
  /// Error messages of trials that threw, in trial order ("trial N: what").
  /// Such trials are excluded from the aggregates but never silently: they
  /// are also reported in the JSON output.
  std::vector<std::string> errors;
  /// One scalar metric's aggregate over the cell's completed trials.
  struct MetricAgg {
    bool reported = false;      ///< ungated, or some trial armed its gate
    PercentileSummary summary;  ///< numeric metrics
    int count = 0;              ///< flag metrics: trials where it held
  };
  /// Indexed like the metric table in runner.cpp; read through metric().
  std::vector<MetricAgg> metrics;
  /// The aggregate of the metric reported under JSON key `key` inside its
  /// block (below_s for watchdog.below_s; keys are unique across blocks).
  /// Throws std::out_of_range for an unknown key.
  [[nodiscard]] const MetricAgg& metric(std::string_view key) const;
  /// Raw per-trial samples, populated when RunnerOptions::include_raw:
  /// (trial index, outcome) for every trial this process executed.
  std::vector<std::pair<int, TrialOutcome>> raw;
};

/// The report's per-checkpoint numbers and per-second window series, in
/// written order; runner.cpp's tables are the only place the report names
/// them.
struct CheckpointField {
  std::string_view key;
  double TrialOutcome::Checkpoint::*trial;
  PercentileSummary CellResult::CheckpointAgg::*cell;
  std::string_view unit;
};
struct SeriesField {
  std::string_view key;
  std::vector<double> TrialOutcome::TrafficWindow::*trial;
  std::vector<double> CellResult::WindowAgg::*cell;
  int precision;
};
[[nodiscard]] std::span<const CheckpointField> checkpoint_fields();
[[nodiscard]] std::span<const SeriesField> series_fields();

struct CampaignResult {
  std::string scenario;
  std::string description;
  std::string profile;  ///< "fast" or "paper"
  int trials_per_cell = 0;
  std::uint64_t base_seed = 0;
  int shard_index = 0;  ///< which shard this report covers (0-based)
  int shard_count = 1;
  std::vector<CellResult> cells;

  [[nodiscard]] Json to_json() const;
};

/// The deterministic per-trial seed for one grid point (exposed for tests).
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed,
                                       const std::string& topology,
                                       int controllers, int trial);

/// Interpret the scenario's timeline on one Experiment built from `cfg`,
/// used as given except that with_hosts follows the timeline (set when it
/// has traffic events). cfg.seed also seeds the scenario's fault, adversary
/// and churn streams. The one timeline interpreter: run_trial is this on
/// the campaign's profile config.
[[nodiscard]] TrialOutcome run_timeline(const Scenario& s,
                                        sim::ExperimentConfig cfg);

/// Execute one trial of a campaign grid point synchronously: the timer
/// profile (RunnerOptions::paper_timers, paranoid) plus the scenario's
/// calibrate_rtt and max_events, seeded with trial_seed, through
/// run_timeline. run_campaign is a thread pool over this. The AxisPoint
/// overload applies the given axis values on top of the profile.
[[nodiscard]] TrialOutcome run_trial(const Scenario& s,
                                     const std::string& topology,
                                     int controllers, const AxisPoint& axes,
                                     int trial, const RunnerOptions& opt);
[[nodiscard]] TrialOutcome run_trial(const Scenario& s,
                                     const std::string& topology,
                                     int controllers, int trial,
                                     const RunnerOptions& opt);

/// The canonical JSON rendering of one trial (the raw-export cell format).
/// Byte-equality of two renderings is the determinism contract the tests
/// check across trial-pool sizes and shard merges.
[[nodiscard]] Json trial_outcome_json(const TrialOutcome& t);

/// The inverse of trial_outcome_json for a completed trial (ok = true;
/// members it does not render, like counters_fp, stay default). Extra keys
/// such as a raw record's "trial" are ignored. Throws std::runtime_error
/// when a key the rendering always carries is missing.
[[nodiscard]] TrialOutcome trial_outcome_from_json(const Json& j);

/// Fold executed trials (in ascending trial order; errored ones carry
/// ok=false) into one cell's aggregates. Takes the outcomes by value (they
/// are consumed — raw export moves them). run_campaign and merge_campaigns
/// share this, which is what makes a merged shard report byte-identical to
/// the unsharded campaign.
[[nodiscard]] CellResult aggregate_cell(
    const std::string& topology, int controllers, AxisPoint axes,
    std::vector<std::pair<int, TrialOutcome>> outcomes, bool include_raw);

/// Expand the grid, run every trial (in parallel), aggregate.
/// Validates topology names up front and throws std::invalid_argument for
/// unknown ones.
[[nodiscard]] CampaignResult run_campaign(const Scenario& s,
                                          const RunnerOptions& opt = {});

}  // namespace ren::scenario
