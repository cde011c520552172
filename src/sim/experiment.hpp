// The experiment harness: builds a complete Renaissance deployment (switch
// fabric + attached controllers + optional host pair), drives it to a
// legitimate state, injects faults, and measures the quantities the paper's
// evaluation reports (bootstrap/recovery time, message overhead, TCP
// throughput around a failover).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/legitimacy.hpp"
#include "faults/injector.hpp"
#include "net/simulator.hpp"
#include "switchd/abstract_switch.hpp"
#include "tcp/host.hpp"
#include "topo/topologies.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::sim {

struct ExperimentConfig {
  std::string topology = "B4";  ///< any topo::resolve() spec: a paper name
                                ///< (B4, Clos, ...), "fat_tree:k=16",
                                ///< "random_wan:nodes=1024", "file:PATH", ...
  int controllers = 3;
  int kappa = 2;
  /// Victim count consumed by scenario events that declare "count": "axis"
  /// (how many controllers/switches/links one injection hits). 0 = unset;
  /// such events throw when no victims axis point is in effect.
  int victims = 0;
  /// Flow-churn arrival rate (flows/s) consumed by start_flow_churn events
  /// that declare "rate": "axis". 0 = unset; such events throw when no
  /// churn_rate axis point is in effect.
  double churn_rate = 0;
  Time task_delay = msec(500);        ///< paper Section 6.3 default
  Time detect_interval = msec(100);
  int theta = 10;                     ///< 10 small nets, 30 large (paper)
  int rule_retention = 3;             ///< 3 = the paper's evaluation variant
  bool memory_adaptive = true;        ///< false = Section 8.1 variant
  std::uint64_t seed = 1;

  Time link_latency = msec(1);
  double link_bandwidth_bps = 1e9;    ///< paper: 1000 Mbit/s
  Time link_max_queue_delay = msec(50);
  double link_loss = 0.0;
  double link_duplicate = 0.0;
  double link_reorder = 0.0;
  double link_corrupt = 0.0;          ///< payload corruption probability

  Time monitor_interval = msec(250);  ///< legitimacy sampling ceiling
  /// Epoch-gated adaptive sampling: between checks the harness advances in
  /// fine steps and consults the monitor as soon as some change epoch moved,
  /// falling back to monitor_interval as the ceiling between checks.
  bool adaptive_monitor = true;
  /// Differential-test mode: shadow every incremental verdict with a full
  /// check and throw on divergence (slow; tests/CI only).
  bool monitor_paranoid = false;
  /// Differential-test mode: shadow every cached controller view with a
  /// from-scratch build and throw on divergence (slow; tests/CI only).
  bool views_paranoid = false;
  /// Differential-test mode: shadow every planned batch with a from-scratch
  /// build and throw unless byte-equal (slow; tests/CI only).
  bool batches_paranoid = false;
  std::size_t max_rules = 1u << 20;
  std::size_t max_replies = 0;        ///< 0 = auto: 2(N_C+N_S)+4
  std::size_t max_managers = 64;
  /// Must be 1 (the Experiment constructor throws std::invalid_argument
  /// otherwise): the simulation kernel is serial. Kept only for callers that
  /// still assign it; goes with the next change to the benchmark.
  int sim_threads = 1;
  bool with_hosts = false;            ///< attach a host pair at max distance
  /// Event budget: run_until_legitimate additionally gives up once the
  /// simulator has executed this many events in total (0 = unlimited). The
  /// Fig. 7 sweep needs it — at tiny task delays a non-converging run
  /// generates enormous event counts, and exhausting the budget *is* the
  /// congestion ceiling the paper plots.
  std::uint64_t max_events = 0;
};

// --- Scenario axes ------------------------------------------------------------
// The generic campaign axes a scenario can sweep (scenario::Scenario::axes).
// This is the single source of truth for axis names and their mapping onto
// ExperimentConfig; the scenario spec parser validates against it so unknown
// axes fail at parse time, and the campaign runner applies it per grid cell.
//
//   kappa          resilience parameter (integer >= 0)
//   theta          failure-detector threshold (integer >= 1)
//   task_delay_ms  do-forever pause; also rescales the discovery interval to
//                  keep the profile's 5:1 task:detect ratio (5 ms floor),
//                  matching the Fig. 7 harness
//   link_loss      per-packet loss probability on every link, in [0, 1)
//   victims        per-injection victim count for events with "count": "axis"
//                  (integer >= 1)
//   churn_rate     flow-churn arrival rate in flows/s for start_flow_churn
//                  events with "rate": "axis" (> 0)
//   table_capacity per-switch rule-table capacity (max_rules; integer >= 1)

/// Names accepted by apply_axis, in presentation order.
[[nodiscard]] const std::vector<std::string>& axis_names();

/// Apply one axis point to a config. Throws std::invalid_argument on an
/// unknown axis name or an out-of-domain value (also used for validation:
/// callers may apply to a scratch config at parse time).
void apply_axis(ExperimentConfig& cfg, const std::string& name, double value);

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  // --- Accessors -----------------------------------------------------------
  [[nodiscard]] net::Simulator& sim() { return sim_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] std::size_t controller_count() const {
    return controllers_.size();
  }
  [[nodiscard]] core::Controller& controller(std::size_t k) {
    return *controllers_[k];
  }
  [[nodiscard]] const std::vector<core::Controller*>& controllers() {
    return controllers_;
  }
  [[nodiscard]] const std::vector<switchd::AbstractSwitch*>& switches() {
    return switches_;
  }
  [[nodiscard]] core::LegitimacyMonitor& monitor() { return *monitor_; }
  [[nodiscard]] faults::ControlPlane control_plane();
  [[nodiscard]] Rng& fault_rng() { return fault_rng_; }

  [[nodiscard]] tcp::Host* host_a() { return host_a_; }
  [[nodiscard]] tcp::Host* host_b() { return host_b_; }

  // --- Convergence measurement ----------------------------------------------
  struct ConvergenceResult {
    bool converged = false;
    double seconds = 0;  ///< from call time to the first legitimate sample
    /// Per-controller deltas over the measured window:
    std::vector<std::uint64_t> iterations;
    std::vector<std::uint64_t> messages;
    std::vector<std::uint64_t> commands;
    std::string last_reason;  ///< monitor's last failure reason (diagnostics)
  };

  /// Run until the monitor reports a legitimate state (sampled every
  /// monitor_interval), or until `limit` simulated time elapses.
  ConvergenceResult run_until_legitimate(Time limit);

  // --- Throughput experiment (Figs. 15-20) -----------------------------------
  struct ThroughputRun {
    Time duration = sec(30);
    Time fail_at = sec(10);
    /// Port-down detection window: the failed link blackholes traffic for
    /// this long before the data plane fails over (models OVS carrier/BFD
    /// detection latency; drives the Fig. 18 retransmission spike).
    Time detection_delay = msec(150);
    bool with_recovery = true;  ///< false = Fig. 16 (controllers frozen)
    tcp::RenoConfig tcp;
  };
  struct ThroughputResult {
    bool ok = false;
    std::vector<double> mbits;     ///< per-second series (Fig. 15/16)
    std::vector<double> retx_pct;  ///< Fig. 18
    std::vector<double> bad_pct;   ///< Fig. 19
    std::vector<double> ooo_pct;   ///< Fig. 20
    std::vector<NodeId> primary_path;
    std::pair<NodeId, NodeId> failed_link{kNoNode, kNoNode};
  };
  ThroughputResult run_throughput(const ThroughputRun& run);

  /// Register the host_a <-> host_b data flow on `owner` (default: the
  /// first *live* controller). Returns the owning controller. Throws
  /// std::logic_error without hosts or without a live controller. The one
  /// place the "who owns the default host-pair flow" policy lives — shared
  /// by run_throughput and the scenario engine.
  core::Controller* register_default_data_flow(
      core::Controller* owner = nullptr);

  /// Fail a link on the current host_a -> host_b data path (preferring, from
  /// the middle outward, one the installed fast-failover rules survive
  /// locally): blackhole now, permanent failure after `detection_delay` (the
  /// port-down detection window). Returns the failed link, or
  /// {kNoNode, kNoNode} when the path is empty or has no candidate edge.
  /// Shared by run_throughput and the scenario engine's fail_path_link event.
  std::pair<NodeId, NodeId> fail_data_path_link(Time detection_delay);

  /// The data path host_a -> host_b implied by the currently installed rules.
  [[nodiscard]] std::vector<NodeId> current_data_path();

 private:
  void build();
  [[nodiscard]] std::vector<NodeId> data_path_between(tcp::Host* from,
                                                      tcp::Host* to);
  [[nodiscard]] std::pair<NodeId, NodeId> pick_failover_link(
      const std::vector<NodeId>& path);

  ExperimentConfig config_;
  topo::Topology topo_;
  net::Simulator sim_;
  Rng fault_rng_;
  std::vector<core::Controller*> controllers_;
  std::vector<switchd::AbstractSwitch*> switches_;
  std::unique_ptr<core::LegitimacyMonitor> monitor_;
  tcp::Host* host_a_ = nullptr;
  tcp::Host* host_b_ = nullptr;
};

}  // namespace ren::sim
