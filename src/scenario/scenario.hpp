// The declarative scenario model: a timeline of timed fault/traffic/
// measurement events plus the parameter axes a campaign sweeps over — the
// built-in topology x controller-count x seed grid composed with any number
// of generic config axes (kappa, task_delay_ms, link_loss, theta; see
// sim::axis_names()). Scenarios come from three places: the C++ builder API
// below, the built-in library (scenario/library.hpp), and JSON spec files
// (parse_spec / to_spec_json round-trip, see docs/scenarios.md for the spec
// reference).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "util/types.hpp"

namespace ren::scenario {

enum class EventKind {
  KillController,   ///< fail-stop `count` random controllers (>=1 survives)
  KillSwitches,     ///< fail-stop `count` connectivity-preserving switches
  FailLinks,        ///< permanently fail `count` random links
  RestoreLinks,     ///< restore every link failed so far
  RestartNodes,     ///< revive every node killed so far (+ their links)
  CorruptAll,       ///< transient-fault storm over all live state
  Freeze,           ///< freeze the controllers' do-forever loops
  Unfreeze,         ///< resume the controllers
  StartTraffic,     ///< open a traffic window: start the host-pair TCP flow
  StopTraffic,      ///< close the open traffic window (stop the sender)
  FailPathLink,     ///< fail a link on the current data path (Figs. 15-20)
  ExpectConverged,  ///< checkpoint: wait for legitimacy, record the time
  StartAdversary,   ///< attach Byzantine adversaries / start a channel storm
  StopAdversary,    ///< detach every adversary, restore link fault baselines
  StartFlowChurn,   ///< start the heavy-tailed data-plane flow workload
  StopFlowChurn,    ///< stop the workload and flush active flow entries
};

[[nodiscard]] const char* to_string(EventKind k);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] EventKind event_kind_from_string(const std::string& s);

/// Sentinel for Event::count: the victim count comes from the campaign's
/// "victims" axis (sim::ExperimentConfig::victims) instead of the event —
/// multi-failure sweeps (Figs. 11/14) run as one campaign. Spec form:
/// "count": "axis".
inline constexpr int kCountAxis = -1;

/// Sentinel for Event::rate: the flow-churn arrival rate comes from the
/// campaign's "churn_rate" axis (sim::ExperimentConfig::churn_rate) instead
/// of the event. Spec form: "rate": "axis".
inline constexpr double kRateAxis = -1.0;

/// Seeds (and event budgets) travel through JSON numbers (doubles) in specs
/// and reports; anything above 2^53 would round silently and break the
/// "same seed, same bytes" contract, so every entry point rejects it loudly.
inline constexpr std::uint64_t kMaxSpecInt = 1ULL << 53;

struct Event {
  Time at = 0;
  EventKind kind = EventKind::ExpectConverged;
  /// Kill*/FailLinks victim count, or kCountAxis to take the value from the
  /// campaign's "victims" axis per grid cell.
  int count = 1;
  bool keep_connected = true;  ///< FailLinks: honor the paper's assumption
  Time limit = sec(120);       ///< ExpectConverged wait bound
  std::string label;           ///< ExpectConverged checkpoint / traffic window
  /// FailPathLink: port-down detection window — the link blackholes traffic
  /// for this long before it goes permanently down (drives the Fig. 18
  /// retransmission spike).
  Time detection = msec(150);
  /// Periodic repetition ("every_ms" in the JSON spec): when `every` > 0 the
  /// event fires `repeat` times at `at`, `at`+every, ... — flap storms no
  /// longer unroll their timelines. ExpectConverged occurrences after the
  /// first get a "_k" label suffix so checkpoints stay distinguishable.
  Time every = 0;
  int repeat = 1;
  /// StartAdversary: "lying" | "equivocating" | "corrupting" | "babbling"
  /// attach per-node adversaries to `count` victims, "channel" sets the
  /// link-level fault probabilities below on every link instead.
  std::string mode;
  double intensity = 1.0;  ///< node modes: per-interposition probability
  /// Node modes: which node class to compromise ("controller" | "switch").
  std::string target = "controller";
  /// Channel ("channel" mode) per-link fault probabilities; a zero keeps
  /// the link's baseline value for that fault.
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  /// StartFlowChurn: mean flow arrival rate in flows/s, or kRateAxis to take
  /// the value from the campaign's "churn_rate" axis per grid cell.
  double rate = 1000.0;
  Time duration = msec(200);  ///< StartFlowChurn: mean flow lifetime
  double alpha = 1.5;  ///< StartFlowChurn: Pareto shape (heavy tail)
  double zipf = 1.0;   ///< StartFlowChurn: endpoint popularity skew
  /// StartFlowChurn: interarrival distribution ("pareto" | "poisson").
  std::string dist = "pareto";
  /// StartFlowChurn: table eviction policy applied to every switch
  /// ("priority_lru" | "reject_lowest"; switchd::EvictionPolicy).
  std::string eviction = "priority_lru";

  bool operator==(const Event&) const = default;
};

/// One generic sweep axis: a named ExperimentConfig parameter and the values
/// the campaign crosses with the topology x controllers x seed grid. Valid
/// names are sim::axis_names() (kappa, theta, task_delay_ms, link_loss,
/// victims).
struct Axis {
  std::string name;
  std::vector<double> values;

  bool operator==(const Axis&) const = default;
};

struct Scenario {
  std::string name;
  std::string description;

  // --- Campaign axes ------------------------------------------------------
  /// Topology specs resolved by topo::resolve(): paper builtin names plus
  /// "fat_tree:k=K", "random_wan:nodes=N[,m=M][,seed=S]",
  /// "isp:nodes=N,diameter=D[,seed=S]" and "file:PATH". The JSON spec also
  /// accepts object form ({"kind": "fat_tree", "k": 16}), canonicalized to
  /// these strings at parse time.
  std::vector<std::string> topologies = {"B4", "Clos", "Telstra"};
  std::vector<int> controllers = {3};
  int trials = 8;  ///< seeds base_seed .. base_seed+trials-1 per cell
  std::uint64_t base_seed = 1;
  /// Generic config axes, crossed with topologies x controllers in
  /// declaration order. Trial seeds depend only on (seed, topology,
  /// controllers, trial) — axis points deliberately reuse them, so sweeps
  /// are paired across axis values like the paper's repeated runs.
  std::vector<Axis> axes;

  bool with_hosts = false;  ///< implied by any StartTraffic event
  /// Calibrate per-topology link latency so the host-to-host RTT lands near
  /// 16 ms (the Section 6.4.3 throughput setup: ~525 Mbit/s steady state
  /// with a 1 MiB receive window on 1000 Mbit/s links).
  bool calibrate_rtt = false;
  /// Per-trial event budget (0 = unlimited): convergence checkpoints give
  /// up once the simulator has executed this many events (Fig. 7).
  std::uint64_t max_events = 0;
  std::vector<Event> events;

  bool operator==(const Scenario&) const = default;

  // --- Builder API (each returns *this for chaining) ----------------------
  Scenario& expect_converged(Time at, std::string label,
                             Time limit = sec(120));
  Scenario& kill_controller(Time at, int count = 1);
  Scenario& kill_switches(Time at, int count = 1);
  Scenario& fail_links(Time at, int count = 1, bool keep_connected = true);
  Scenario& restore_links(Time at);
  Scenario& restart_nodes(Time at);
  Scenario& corrupt_all(Time at);
  Scenario& freeze(Time at);
  Scenario& unfreeze(Time at);
  /// Open the trial's traffic window (one per trial — the hosts' TCP
  /// endpoints are single-flow). The label names the window in the campaign
  /// report ("traffic" when empty); the flow starts at `at` (the data flow
  /// is registered at build time so its rules install during bootstrap).
  Scenario& start_traffic(Time at, std::string label = "");
  /// Close the open traffic window: stop the sender, record the window's
  /// per-second goodput/retransmission series and mean goodput.
  Scenario& stop_traffic(Time at);
  /// Fail a link on the current data path (blackhole for `detection`, then
  /// permanently down) — the Figs. 15-20 mid-path failure.
  Scenario& fail_path_link(Time at, Time detection = msec(150));
  /// Attach Byzantine adversaries (faults/adversary.hpp) to `count` random
  /// live nodes of `target` class ("controller" or "switch"). `mode` is one
  /// of "lying", "equivocating", "corrupting", "babbling"; `intensity` is
  /// the per-interposition tamper probability. Activates the stabilization
  /// watchdog for the trial.
  Scenario& start_adversary(Time at, std::string mode, int count = 1,
                            double intensity = 1.0,
                            std::string target = "controller");
  /// In-band channel-fault storm: set per-link fault probabilities on every
  /// link (mode "channel"). Zeros keep the baseline value per fault.
  Scenario& channel_faults(Time at, double loss, double corrupt,
                           double duplicate = 0.0, double reorder = 0.0);
  /// Detach every adversary and restore the per-link fault baselines; the
  /// watchdog records whether the system re-stabilizes afterwards.
  Scenario& stop_adversary(Time at);
  /// Start the heavy-tailed data-plane flow workload (flows/churn.hpp):
  /// `rate` flows/s (or kRateAxis to sweep the "churn_rate" axis) with mean
  /// lifetime `mean_duration`, Pareto shape `alpha`, Zipf endpoint skew
  /// `zipf`, interarrival distribution `dist` ("pareto" | "poisson") and
  /// table eviction policy `eviction` ("priority_lru" | "reject_lowest").
  /// Activates the per-switch table metrics ("table") for the trial.
  Scenario& start_flow_churn(Time at, double rate,
                             Time mean_duration = msec(200),
                             double alpha = 1.5, double zipf = 1.0,
                             std::string dist = "pareto",
                             std::string eviction = "priority_lru");
  /// Stop the flow workload and flush every active flow entry.
  Scenario& stop_flow_churn(Time at);
  /// Add a generic sweep axis (or replace the values of an existing one).
  /// Throws std::invalid_argument on unknown names, out-of-domain values,
  /// or an empty value list — axis typos fail at build time, not mid-run.
  Scenario& axis(const std::string& name, std::vector<double> values);
  /// Make the most recently added event periodic: `times` total occurrences
  /// spaced `period` apart. Throws std::logic_error without a prior event,
  /// std::invalid_argument on a non-positive period/count.
  Scenario& every(Time period, int times);

  /// The timeline the trial executor interprets: periodic entries expanded
  /// into their concrete occurrences, ordered by time; ties keep
  /// declaration order (stable), which is how e.g. restart_nodes +
  /// expect_converged at the same instant compose.
  [[nodiscard]] std::vector<Event> expanded_events() const;

  [[nodiscard]] bool needs_hosts() const;
};

/// Serialize to the JSON spec format (times in milliseconds).
[[nodiscard]] Json to_spec_json(const Scenario& s);

/// Parse a JSON spec document. Unknown keys are rejected so typos in spec
/// files fail loudly; missing keys take the Scenario / Event defaults;
/// numbers are range-checked before they are converted (docs/scenarios.md).
/// Throws std::runtime_error / std::invalid_argument on malformed specs,
/// naming the key and the event index.
[[nodiscard]] Scenario parse_spec(const std::string& text);
[[nodiscard]] Scenario parse_spec_json(const Json& doc);

}  // namespace ren::scenario
