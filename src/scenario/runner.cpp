#include "scenario/runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "faults/adversary.hpp"
#include "faults/injector.hpp"
#include "flows/churn.hpp"
#include "net/link.hpp"
#include "sim/experiment.hpp"
#include "switchd/abstract_switch.hpp"
#include "tcp/host.hpp"
#include "topo/source.hpp"
#include "util/rng.hpp"

namespace ren::scenario {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

sim::ExperimentConfig profile_config(const Scenario& s,
                                     const std::string& topology,
                                     int controllers, const AxisPoint& axes,
                                     std::uint64_t seed,
                                     const RunnerOptions& opt) {
  sim::ExperimentConfig cfg = opt.paper_timers ? sim::paper_profile(topology)
                                               : sim::fast_profile(topology);
  cfg.controllers = controllers;
  cfg.seed = seed;
  cfg.paranoid = opt.paranoid;
  if (s.calibrate_rtt) {
    // The Section 6.4.3 throughput setup: per-topology latency so the
    // host-to-host RTT lands near 16 ms (the hosts sit at diameter + 2
    // hops from each other, counting the attach edges).
    const int diameter = topo::resolve(topology).expected_diameter;
    cfg.link_latency = 16'000 / (2 * (diameter + 2));
  }
  cfg.max_events = s.max_events;
  // Generic axis points override the profile last, so an axis value always
  // wins (e.g. a task_delay_ms axis replaces either profile's task delay).
  for (const auto& [name, value] : axes) sim::apply_axis(cfg, name, value);
  return cfg;
}

/// Cross-product of the scenario's generic axes, in declaration order; a
/// scenario without axes yields the single empty point.
std::vector<AxisPoint> expand_axis_points(const Scenario& s) {
  std::vector<AxisPoint> points{AxisPoint{}};
  for (const Axis& a : s.axes) {
    if (a.values.empty())
      throw std::invalid_argument("axis \"" + a.name + "\" has no values");
    std::vector<AxisPoint> next;
    next.reserve(points.size() * a.values.size());
    for (const AxisPoint& p : points) {
      for (double v : a.values) {
        AxisPoint q = p;
        q.emplace_back(a.name, v);
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  return points;
}

/// Element-wise mean of variable-length per-second series: each second
/// averages over the trials whose series reach it.
struct SeriesAcc {
  std::vector<double> sum;
  std::vector<int> n;

  void add(const std::vector<double>& v) {
    sum.resize(std::max(sum.size(), v.size()), 0.0);
    n.resize(sum.size(), 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      sum[i] += v[i];
      n[i] += 1;
    }
  }

  /// Every second below sum.size() was reached by the series that grew it.
  [[nodiscard]] std::vector<double> mean() const {
    std::vector<double> out(sum.size());
    for (std::size_t i = 0; i < sum.size(); ++i) out[i] = sum[i] / n[i];
    return out;
  }
};

Json summary_json(const PercentileSummary& p) {
  Json j;
  j.set("mean", p.mean);
  j.set("min", p.min);
  j.set("p50", p.p50);
  j.set("p90", p.p90);
  j.set("p99", p.p99);
  j.set("max", p.max);
  j.set("n", p.n);
  return j;
}

// --- Report metrics ---------------------------------------------------------

/// One scalar report metric. The table below is the only place the report
/// format names these: trial_outcome_json, trial_outcome_from_json,
/// aggregate_cell and CampaignResult::to_json are loops over it, so a new
/// metric is one row. The field's type picks the cell aggregation: a double
/// becomes a percentile summary, a bool the count of trials where it held.
struct Metric {
  std::string_view block;  ///< "" = top level, else the sub-object's key
  std::string_view key;
  std::variant<double TrialOutcome::*, bool TrialOutcome::*> field;
  bool TrialOutcome::*gate;  ///< nullptr: every completed trial reports it
};

using Out = TrialOutcome;
constexpr std::string_view kWatchdog = "watchdog", kTable = "table";
constexpr auto kWatchdogGate = &Out::has_watchdog;
constexpr auto kTableGate = &Out::has_table;

/// Row order is emission order. Keys are unique (CellResult::metric looks
/// rows up by key). A block's rows are contiguous and share a gate, so a
/// trial (or cell) that never armed it renders without the block —
/// byte-identical to reports from before the block existed.
constexpr Metric kMetrics[] = {
    {"", "messages", &Out::messages, nullptr},
    {"", "commands", &Out::commands, nullptr},
    {"", "illegitimate_deletions", &Out::illegitimate_deletions, nullptr},
    {kWatchdog, "below_s", &Out::wd_below_s, kWatchdogGate},
    {kWatchdog, "episodes", &Out::wd_episodes, kWatchdogGate},
    {kWatchdog, "blast_radius", &Out::wd_blast_radius, kWatchdogGate},
    {kWatchdog, "restabilized", &Out::wd_restabilized, kWatchdogGate},
    {kTable, "arrivals", &Out::tbl_arrivals, kTableGate},
    {kTable, "departures", &Out::tbl_departures, kTableGate},
    {kTable, "peak_active", &Out::tbl_peak_active, kTableGate},
    {kTable, "installs", &Out::tbl_installs, kTableGate},
    {kTable, "overflows", &Out::tbl_overflows, kTableGate},
    {kTable, "evictions", &Out::tbl_evictions, kTableGate},
    {kTable, "peak_rules", &Out::tbl_peak_rules, kTableGate},
    {kTable, "lookups", &Out::tbl_lookups, kTableGate},
    {kTable, "lookup_cost", &Out::tbl_lookup_cost, kTableGate},
    {"", "traffic_mbits", &Out::traffic_mbits, &Out::has_traffic},
};
constexpr std::size_t kMetricCount = std::size(kMetrics);

using Cp = TrialOutcome::Checkpoint;
using CpAgg = CellResult::CheckpointAgg;
using Win = TrialOutcome::TrafficWindow;
using WinAgg = CellResult::WindowAgg;

constexpr CheckpointField kCheckpointFields[] = {
    {"seconds", &Cp::seconds, &CpAgg::seconds, "s"},
    {"cmd_per_node_iter", &Cp::cmd_per_node_iter, &CpAgg::cmd_per_node_iter,
     "msgs/node/iter"},
};
constexpr std::size_t kCheckpointFieldCount = std::size(kCheckpointFields);

constexpr SeriesField kSeriesFields[] = {
    {"mbits_series", &Win::mbits_series, &WinAgg::mbits_series, 0},
    {"retx_pct", &Win::retx_pct, &WinAgg::retx_pct, 1},
    {"bad_pct", &Win::bad_pct, &WinAgg::bad_pct, 1},
    {"ooo_pct", &Win::ooo_pct, &WinAgg::ooo_pct, 1},
};
constexpr std::size_t kSeriesFieldCount = std::size(kSeriesFields);

/// A traffic window's length in whole seconds: a field of its own that
/// shares its JSON key with the checkpoint time above.
constexpr const char* kWindowSeconds = "seconds";

bool reports(const Metric& m, const TrialOutcome& t) {
  return m.gate == nullptr || t.*m.gate;
}

bool is_flag(const Metric& m) {
  return std::holds_alternative<bool TrialOutcome::*>(m.field);
}

/// Append the rows `present(i)` admits to `parent` in table order, a
/// block's rows nested under the block's key; `value(i)` renders row i.
template <class Present, class Value>
void set_metrics(Json& parent, Present present, Value value) {
  Json block;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const Metric& m = kMetrics[i];
    if (!present(i)) continue;
    if (m.block.empty()) {
      parent.set(std::string(m.key), value(i));
      continue;
    }
    block.set(std::string(m.key), value(i));
    if (i + 1 == kMetricCount || kMetrics[i + 1].block != m.block) {
      parent.set(std::string(m.block), std::exchange(block, Json{}));
    }
  }
}

void read_into(double& dst, const Json& v) { dst = v.as_number(); }
void read_into(bool& dst, const Json& v) { dst = v.as_bool(); }

/// The per-trial timeline interpreter.
class TrialExecutor {
 public:
  TrialExecutor(const Scenario& s, sim::ExperimentConfig cfg)
      : scenario_(s),
        // The scenario fault stream is separate from the experiment's
        // internal streams so adding internal randomness never reshuffles
        // which victims a scenario picks.
        fault_rng_(mix64(cfg.seed ^ 0x5ce9a5ce9a5ce9aULL)),
        seed_(cfg.seed) {
    // The stabilization watchdog arms only for adversarial scenarios: its
    // fine-grained advance + sampling would otherwise change nothing but
    // still run, and benign campaign reports must stay byte-identical to
    // pre-watchdog output.
    wd_active_ = std::any_of(
        s.events.begin(), s.events.end(),
        [](const Event& e) { return e.kind == EventKind::StartAdversary; });
    // Table metrics gate the same way: armed only when the scenario drives
    // the flow-churn workload, so churn-free reports stay byte-identical.
    table_active_ = std::any_of(
        s.events.begin(), s.events.end(),
        [](const Event& e) { return e.kind == EventKind::StartFlowChurn; });
    cfg.with_hosts = s.needs_hosts();
    exp_ = std::make_unique<sim::Experiment>(std::move(cfg));
    cp_ = exp_->control_plane();
    // Traffic scenarios register the host<->host data flow up front so its
    // rules install during bootstrap — a start_traffic event then opens its
    // window at exactly its timestamp instead of consuming a variable
    // install wait, which is what lets throughput figures (15/16) place
    // fail_path_link/stop_traffic at fixed offsets from the window start.
    if (s.needs_hosts()) {
      flow_owner_ = exp_->register_default_data_flow();
    }
  }

  TrialOutcome run() {
    TrialOutcome out;
    for (const Event& ev : scenario_.expanded_events()) {
      if (exp_->sim().now() < ev.at) advance_to(ev.at);
      apply(ev, out);
    }
    finish(out);
    out.ok = true;
    return out;
  }

 private:
  /// Victim count of a Kill*/FailLinks event: literal, or — for
  /// "count": "axis" — the grid cell's victims axis value.
  [[nodiscard]] int victim_count(const Event& ev) const {
    if (ev.count != kCountAxis) return ev.count;
    const int v = exp_->config().victims;
    if (v < 1) {
      throw std::logic_error(
          "event with count \"axis\" needs a \"victims\" axis in the campaign");
    }
    return v;
  }

  void apply(const Event& ev, TrialOutcome& out) {
    switch (ev.kind) {
      case EventKind::KillController:
        faults::kill_random_controllers(cp_, fault_rng_, victim_count(ev));
        break;
      case EventKind::KillSwitches:
        faults::kill_random_switches(cp_, fault_rng_, victim_count(ev));
        break;
      case EventKind::FailLinks:
        faults::fail_random_links(cp_, fault_rng_, victim_count(ev),
                                  ev.keep_connected);
        break;
      case EventKind::RestoreLinks:
        faults::restore_all_links(cp_);
        break;
      case EventKind::RestartNodes:
        faults::restart_all_nodes(cp_);
        break;
      case EventKind::CorruptAll:
        faults::corrupt_all_state(cp_, fault_rng_);
        break;
      case EventKind::Freeze:
        for (auto* c : exp_->controllers()) c->set_frozen(true);
        break;
      case EventKind::Unfreeze:
        for (auto* c : exp_->controllers()) c->set_frozen(false);
        break;
      case EventKind::StartTraffic:
        start_traffic(ev.label);
        break;
      case EventKind::StopTraffic:
        if (traffic_stats_ == nullptr)
          throw std::logic_error("stop_traffic: no open traffic window");
        close_window(out);
        break;
      case EventKind::FailPathLink: {
        const auto link = exp_->fail_data_path_link(ev.detection);
        if (link.first == kNoNode)
          throw std::logic_error(
              "fail_path_link: no data-path link to fail (is a flow "
              "installed?)");
        break;
      }
      case EventKind::ExpectConverged: {
        if (wd_active_) wd_sample();
        const auto r = exp_->run_until_legitimate(ev.limit);
        TrialOutcome::Checkpoint cp;
        cp.label = ev.label;
        cp.converged = r.converged;
        cp.seconds = r.converged ? r.seconds : to_seconds(ev.limit);
        // Fig. 9's normalized cost: max-loaded controller by commands sent
        // over the wait, per completed iteration and per node.
        const auto nodes = static_cast<double>(
            exp_->topology().switch_graph.n() +
            static_cast<int>(exp_->controller_count()));
        for (std::size_t k = 0; k < r.commands.size(); ++k) {
          if (r.iterations[k] == 0) continue;
          const double per_node = static_cast<double>(r.commands[k]) /
                                  static_cast<double>(r.iterations[k]) / nodes;
          cp.cmd_per_node_iter = std::max(cp.cmd_per_node_iter, per_node);
        }
        // The checkpoint's verdict is the monitor's at the current epoch.
        if (wd_active_) wd_account(exp_->sim().now(), r.converged);
        out.checkpoints.push_back(std::move(cp));
        break;
      }
      case EventKind::StartAdversary:
        start_adversary(ev);
        break;
      case EventKind::StopAdversary:
        stop_adversary();
        break;
      case EventKind::StartFlowChurn:
        start_flow_churn(ev);
        break;
      case EventKind::StopFlowChurn:
        stop_flow_churn();
        break;
    }
  }

  // --- Flow-churn lifecycle ------------------------------------------------

  /// Flow-churn generator tick cadence. Arrivals between ticks batch up and
  /// install at the next tick boundary; ticks are global-lane events, so
  /// they sort before every node event at the same time.
  static constexpr Time kChurnTick = msec(10);
  /// Rng::stream_seed stream id of the churn generator's private stream.
  static constexpr std::uint64_t kChurnStream = 0x466c6f774368ULL;  // "FlowCh"

  void start_flow_churn(const Event& ev) {
    if (churn_running_) {
      throw std::logic_error(
          "start_flow_churn: flow churn is already active");
    }
    double rate = ev.rate;
    if (rate == kRateAxis) {
      rate = exp_->config().churn_rate;
      if (!(rate > 0)) {
        throw std::logic_error(
            "start_flow_churn with rate \"axis\" needs a \"churn_rate\" axis "
            "in the campaign");
      }
    }
    flows::ChurnConfig ccfg;
    ccfg.rate = rate;
    ccfg.mean_duration = ev.duration;
    ccfg.alpha = ev.alpha;
    ccfg.zipf = ev.zipf;
    ccfg.dist = ev.dist == "poisson" ? flows::ChurnDist::Poisson
                                     : flows::ChurnDist::Pareto;
    const auto policy = ev.eviction == "reject_lowest"
                            ? switchd::EvictionPolicy::RejectLowest
                            : switchd::EvictionPolicy::PriorityLru;
    for (auto* sw : exp_->switches()) {
      sw->rule_table().set_eviction_policy(policy);
    }
    churn_ = std::make_unique<flows::ChurnGenerator>(
        exp_->topology().switch_graph, ccfg,
        Rng::stream_seed(seed_, kChurnStream), exp_->sim().now());
    churn_running_ = true;
    exp_->sim().schedule(kChurnTick, [this] { churn_tick(); });
  }

  void stop_flow_churn() {
    if (!churn_running_) {
      throw std::logic_error("stop_flow_churn: no active flow churn");
    }
    churn_running_ = false;  // the pending tick fires once and goes quiet
    // Flush every active flow: departures ahead of schedule, but removed —
    // the workload window ends with management rules alone in the tables.
    while (!active_flows_.empty()) {
      retire_flow(active_flows_.begin());
    }
  }

  /// One harness-lane churn tick: install the arrivals due by now, retire
  /// the flows whose lifetime ended, re-arm.
  void churn_tick() {
    if (!churn_running_) return;
    const Time now = exp_->sim().now();
    arrivals_buf_.clear();
    churn_->advance(now, arrivals_buf_);
    for (const flows::FlowArrival& a : arrivals_buf_) install_flow(a);
    while (!active_flows_.empty() &&
           active_flows_.begin()->first.first <= now) {
      retire_flow(active_flows_.begin());
    }
    exp_->sim().schedule(kChurnTick, [this] { churn_tick(); });
  }

  /// Install one microflow entry per hop of the flow's shortest path (the
  /// table may evict or reject under pressure — that is the experiment).
  void install_flow(const flows::FlowArrival& a) {
    churn_->path_hops(a.src, a.dst, hops_buf_);
    if (hops_buf_.empty()) return;  // currently unreachable in the fabric
    switchd::FlowRule r;
    r.id = a.id;
    r.src = a.src;
    r.dst = a.dst;
    r.prt = a.prt;
    const auto& switches = exp_->switches();
    for (NodeId v : hops_buf_) {
      r.fwd = churn_->next_hop(v, a.dst);
      switches[static_cast<std::size_t>(v)]->rule_table().install_flow(r);
    }
    active_flows_.emplace(std::pair{a.at + a.duration, a.id}, hops_buf_);
    tbl_peak_active_ =
        std::max(tbl_peak_active_, static_cast<double>(active_flows_.size()));
  }

  void retire_flow(
      std::map<std::pair<Time, std::uint64_t>,
               std::vector<NodeId>>::iterator it) {
    const std::uint64_t id = it->first.second;
    const auto& switches = exp_->switches();
    for (NodeId v : it->second) {
      // false = the entry was already evicted under pressure; fine.
      switches[static_cast<std::size_t>(v)]->rule_table().remove_flow(id);
    }
    ++tbl_departures_;
    active_flows_.erase(it);
  }

  // --- Adversary lifecycle + stabilization watchdog -----------------------

  /// Advance simulated time to `target`. Adversarial trials sample the
  /// legitimacy monitor every monitor_interval along the way (epoch-gated,
  /// so quiet stretches cost pointer reads); benign trials take the single
  /// jump and execute the exact pre-watchdog event schedule.
  void advance_to(Time target) {
    if (!wd_active_) {
      exp_->sim().run_until(target);
      return;
    }
    const Time step = std::max<Time>(exp_->config().monitor_interval, 1);
    while (exp_->sim().now() < target) {
      // now() only advances by executing events: aim each step at the next
      // pending event so an empty window can never spin this loop.
      const Time next = exp_->sim().next_event_time();
      if (next == kTimeNever || next > target) break;  // nothing before target
      exp_->sim().run_until(
          std::min(target, std::max(next, exp_->sim().now() + step)));
      wd_sample();
    }
  }

  /// One watchdog sample: consult the monitor (which replays its verdict
  /// when the stack epoch is unchanged) and fold it into the accounting.
  void wd_sample() {
    wd_account(exp_->sim().now(), exp_->monitor().check().legitimate);
  }

  /// Fold one (time, verdict) sample into the watchdog counters. Time below
  /// legitimacy accumulates only after the first legitimate sample (the
  /// bootstrap climb is not an outage); an episode is each legitimate ->
  /// illegitimate edge. Resolution is the sampling step (monitor_interval).
  void wd_account(Time t, bool legit) {
    if (wd_have_verdict_ && wd_seen_legit_ && !wd_last_legit_) {
      wd_below_ += t - wd_last_t_;
    }
    if (wd_have_verdict_ && wd_last_legit_ && !legit) ++wd_episodes_;
    if (legit) wd_seen_legit_ = true;
    wd_have_verdict_ = true;
    wd_last_legit_ = legit;
    wd_last_t_ = t;
  }

  /// Snapshot every switch's change epoch at the first adversary start of a
  /// window — the blast-radius baseline.
  void wd_arm_blast() {
    if (wd_blast_armed_) return;
    wd_blast_armed_ = true;
    wd_epoch_snapshot_.clear();
    for (auto* sw : exp_->switches()) {
      wd_epoch_snapshot_[sw->id()] = sw->change_epoch();
    }
  }

  /// Blast radius: the fraction of switches whose manager/rule state moved
  /// since the adversary window opened. Conservative — it counts switches
  /// the adversary touched transiently even if they were repaired before
  /// the window closed (and any concurrent benign churn).
  void wd_measure_blast() {
    if (!wd_blast_armed_ || wd_epoch_snapshot_.empty()) return;
    double diverged = 0;
    for (auto* sw : exp_->switches()) {
      auto it = wd_epoch_snapshot_.find(sw->id());
      if (it != wd_epoch_snapshot_.end() && sw->change_epoch() != it->second) {
        diverged += 1;
      }
    }
    wd_blast_ = std::max(
        wd_blast_, diverged / static_cast<double>(wd_epoch_snapshot_.size()));
    wd_blast_armed_ = false;
  }

  void start_adversary(const Event& ev) {
    wd_arm_blast();
    if (ev.mode == "channel") {
      auto& net = exp_->sim().network();
      if (baseline_faults_.empty()) {
        baseline_faults_.reserve(net.link_count());
        for (std::size_t i = 0; i < net.link_count(); ++i) {
          baseline_faults_.push_back(
              net.link(static_cast<int>(i)).params().faults);
        }
      }
      for (std::size_t i = 0; i < net.link_count(); ++i) {
        net::LinkFaults f = baseline_faults_[i];
        if (ev.loss > 0) f.loss = ev.loss;
        if (ev.duplicate > 0) f.duplicate = ev.duplicate;
        if (ev.reorder > 0) {
          f.reorder = ev.reorder;
          if (f.reorder_delay_max <= 0) {
            f.reorder_delay_max = 4 * exp_->config().link_latency;
          }
        }
        if (ev.corrupt > 0) f.corrupt = ev.corrupt;
        net.link(static_cast<int>(i)).set_faults(f);
      }
      storm_active_ = true;
      return;
    }
    faults::Adversary::Config acfg;
    acfg.mode = faults::adversary_mode_from_string(ev.mode);
    acfg.intensity = ev.intensity;
    const auto node_space =
        static_cast<NodeId>(exp_->sim().network().node_count());
    const int want = victim_count(ev);
    // Victims are drawn from the scenario fault stream over the candidates
    // in id order, like every other injection — adding adversaries never
    // reshuffles which nodes earlier events picked.
    std::vector<transport::InBandNode*> cand;
    if (ev.target == "switch") {
      cand.assign(exp_->switches().begin(), exp_->switches().end());
    } else {
      cand.assign(exp_->controllers().begin(), exp_->controllers().end());
    }
    std::erase_if(cand, [](const transport::InBandNode* n) {
      return !n->alive() || n->adversary() != nullptr;
    });
    for (int k = 0; k < want && !cand.empty(); ++k) {
      const auto pick =
          static_cast<std::size_t>(fault_rng_.next_below(cand.size()));
      transport::InBandNode* n = cand[pick];
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(pick));
      auto& [host, adversary] = adversaries_.emplace_back(
          n, std::make_unique<faults::Adversary>(n->id(), node_space, acfg,
                                                 seed_));
      host->set_adversary(adversary.get());
    }
  }

  void stop_adversary() {
    wd_measure_blast();
    for (auto& [host, adversary] : adversaries_) host->set_adversary(nullptr);
    adversaries_.clear();
    if (storm_active_) {
      auto& net = exp_->sim().network();
      for (std::size_t i = 0; i < baseline_faults_.size(); ++i) {
        net.link(static_cast<int>(i)).set_faults(baseline_faults_[i]);
      }
      storm_active_ = false;
    }
    wd_stopped_ = true;
  }

  void start_traffic(const std::string& label) {
    tcp::Host* a = exp_->host_a();
    tcp::Host* b = exp_->host_b();
    if (a == nullptr || b == nullptr)
      throw std::logic_error("start_traffic: experiment has no hosts");
    // One window per trial: the hosts' TCP endpoints are single-flow, and
    // replacing a sender would leave its queued RTO callbacks dangling.
    if (traffic_stats_ != nullptr || !retired_stats_.empty())
      throw std::logic_error(
          "start_traffic: only one traffic window per trial is supported");
    // The build-time flow owner may have been killed by an earlier event;
    // re-register on a surviving controller so the flow stays provisioned.
    if (flow_owner_ == nullptr || !flow_owner_->alive()) {
      flow_owner_ = exp_->register_default_data_flow();
    }
    // Fallback install wait (epoch-gated): the flow is registered at build
    // time, so after a bootstrap checkpoint the path is already walkable and
    // this loop exits without consuming simulated time.
    const Time deadline = exp_->sim().now() + sec(30);
    std::uint64_t walked_epoch = exp_->monitor().stack_epoch() - 1;
    while (exp_->sim().now() < deadline) {
      const std::uint64_t e = exp_->monitor().stack_epoch();
      if (e != walked_epoch) {
        walked_epoch = e;
        if (!exp_->current_data_path().empty()) break;
      }
      if (exp_->sim().next_event_time() == kTimeNever) break;  // drained
      exp_->sim().run_until(exp_->sim().now() + exp_->config().task_delay);
    }
    traffic_stats_ = std::make_unique<tcp::FlowStats>(exp_->sim().now());
    b->make_receiver(a->id(), traffic_stats_.get());
    auto& sender = a->make_sender(b->id(), traffic_stats_.get());
    window_label_ = label;
    traffic_start_ = exp_->sim().now();
    sender.start(traffic_start_);
  }

  /// Close the open traffic window: stop the sender and record the window's
  /// series + mean goodput.
  void close_window(TrialOutcome& out) {
    if (traffic_stats_ == nullptr) return;
    if (exp_->host_a() != nullptr && exp_->host_a()->sender() != nullptr) {
      exp_->host_a()->sender()->stop();
    }
    TrialOutcome::TrafficWindow w;
    w.label = window_label_.empty() ? "traffic" : window_label_;
    w.seconds =
        static_cast<int>((exp_->sim().now() - traffic_start_) / sec(1));
    if (w.seconds > 0) {
      w.mbits_series = traffic_stats_->mbits_series(w.seconds);
      w.retx_pct = traffic_stats_->retransmission_pct(w.seconds);
      w.bad_pct = traffic_stats_->bad_tcp_pct(w.seconds);
      w.ooo_pct = traffic_stats_->out_of_order_pct(w.seconds);
      double total = 0;
      for (double v : w.mbits_series) total += v;
      w.mbits = total / w.seconds;
    }
    out.windows.push_back(std::move(w));
    // Retire the stats object instead of destroying it: the hosts' TCP
    // endpoints keep raw pointers to it, and segments still in flight at
    // the stop instant are delivered (and recorded) if the timeline
    // advances further — the window snapshot above is already taken.
    retired_stats_.push_back(std::move(traffic_stats_));
    window_label_.clear();
  }

  void finish(TrialOutcome& out) {
    const auto& counters = exp_->sim().counters();
    for (const auto* c : exp_->controllers()) {
      const auto idx = static_cast<std::size_t>(c->id());
      out.messages += static_cast<double>(counters.ctrl_messages_sent[idx]);
      out.commands += static_cast<double>(counters.ctrl_commands_sent[idx]);
      out.illegitimate_deletions +=
          static_cast<double>(c->stats().illegitimate_deletions);
    }
    close_window(out);  // a window left open closes at trial end
    if (!out.windows.empty()) {
      out.has_traffic = true;
      out.traffic_mbits = out.windows.front().mbits;
    }
    if (wd_active_) {
      wd_sample();
      wd_measure_blast();  // adversary still live: measure at trial end
      out.has_watchdog = true;
      out.wd_below_s = to_seconds(wd_below_);
      out.wd_episodes = wd_episodes_;
      out.wd_blast_radius = wd_blast_;
      out.wd_restabilized = wd_stopped_ && wd_last_legit_;
    }
    if (table_active_) {
      out.has_table = true;
      out.tbl_arrivals =
          churn_ ? static_cast<double>(churn_->arrivals()) : 0;
      out.tbl_departures = tbl_departures_;
      out.tbl_peak_active = tbl_peak_active_;
      for (auto* sw : exp_->switches()) {
        const auto& fs = sw->rule_table().flow_stats();
        out.tbl_installs += static_cast<double>(fs.installs);
        out.tbl_overflows += static_cast<double>(fs.overflow_rejects);
        out.tbl_evictions += static_cast<double>(fs.flow_evictions);
        out.tbl_peak_rules =
            std::max(out.tbl_peak_rules, static_cast<double>(fs.peak_rules));
        out.tbl_lookups += static_cast<double>(fs.lookups);
        out.tbl_lookup_cost += static_cast<double>(fs.lookup_cost);
      }
    }
    out.counters_fp = exp_->sim().counters().fingerprint();
  }

  const Scenario& scenario_;
  Rng fault_rng_;
  std::unique_ptr<sim::Experiment> exp_;
  faults::ControlPlane cp_;
  core::Controller* flow_owner_ = nullptr;  ///< data-flow owner (traffic)
  std::unique_ptr<tcp::FlowStats> traffic_stats_;  ///< open window, if any
  /// The closed window's stats, kept alive for the rest of the trial: the
  /// hosts' TCP endpoints hold raw pointers into it and may still record
  /// in-flight segments after the window snapshot was taken.
  std::vector<std::unique_ptr<tcp::FlowStats>> retired_stats_;
  std::string window_label_;
  Time traffic_start_ = 0;
  std::uint64_t seed_ = 0;  ///< the trial seed (adversary stream derivation)

  // --- Adversary + stabilization-watchdog state (adversarial trials only) --
  /// Attached adversaries with the node each one interposes on.
  std::vector<std::pair<transport::InBandNode*,
                        std::unique_ptr<faults::Adversary>>>
      adversaries_;
  std::vector<net::LinkFaults> baseline_faults_;  ///< pre-storm per-link
  bool storm_active_ = false;
  bool wd_active_ = false;        ///< scenario contains a StartAdversary
  bool wd_have_verdict_ = false;  ///< at least one sample folded in
  bool wd_last_legit_ = false;
  bool wd_seen_legit_ = false;    ///< first legitimate sample reached
  Time wd_last_t_ = 0;
  Time wd_below_ = 0;             ///< accumulated time below legitimacy
  int wd_episodes_ = 0;
  bool wd_stopped_ = false;       ///< a stop_adversary event ran
  double wd_blast_ = 0;
  bool wd_blast_armed_ = false;
  std::map<NodeId, std::uint64_t> wd_epoch_snapshot_;

  // --- Flow-churn state (churn scenarios only) ----------------------------
  bool table_active_ = false;   ///< scenario contains a StartFlowChurn
  bool churn_running_ = false;  ///< between start_flow_churn and stop
  std::unique_ptr<flows::ChurnGenerator> churn_;
  /// (end time, flow id) -> hop switches the flow's entries sit on. Ordered,
  /// so departures retire in (time, id) order — deterministic.
  std::map<std::pair<Time, std::uint64_t>, std::vector<NodeId>> active_flows_;
  std::vector<flows::FlowArrival> arrivals_buf_;
  std::vector<NodeId> hops_buf_;
  double tbl_departures_ = 0;
  double tbl_peak_active_ = 0;
};

}  // namespace

Json trial_outcome_json(const TrialOutcome& out) {
  Json rj;
  Json rcps{JsonArray{}};
  for (const auto& rcp : out.checkpoints) {
    Json j;
    j.set("label", rcp.label);
    j.set("converged", rcp.converged);
    for (const CheckpointField& f : kCheckpointFields) {
      j.set(std::string(f.key), rcp.*f.trial);
    }
    rcps.push_back(std::move(j));
  }
  rj.set("checkpoints", std::move(rcps));
  if (!out.windows.empty()) {
    Json rwins{JsonArray{}};
    for (const auto& w : out.windows) {
      Json j;
      j.set("label", w.label);
      j.set(kWindowSeconds, w.seconds);
      j.set("mbits", w.mbits);
      for (const SeriesField& f : kSeriesFields) {
        j.set(std::string(f.key), json_array(w.*f.trial));
      }
      rwins.push_back(std::move(j));
    }
    rj.set("traffic_windows", std::move(rwins));
  }
  set_metrics(
      rj, [&](std::size_t i) { return reports(kMetrics[i], out); },
      [&](std::size_t i) {
        return std::visit([&](auto f) { return Json(out.*f); },
                          kMetrics[i].field);
      });
  return rj;
}

TrialOutcome trial_outcome_from_json(const Json& rj) {
  TrialOutcome out;
  out.ok = true;
  for (const Json& cj : rj.at("checkpoints").as_array()) {
    TrialOutcome::Checkpoint cp;
    cp.label = cj.at("label").as_string();
    cp.converged = cj.at("converged").as_bool();
    for (const CheckpointField& f : kCheckpointFields) {
      cp.*f.trial = cj.at(std::string(f.key)).as_number();
    }
    out.checkpoints.push_back(std::move(cp));
  }
  if (const Json* wins = rj.find("traffic_windows"); wins != nullptr) {
    for (const Json& wj : wins->as_array()) {
      TrialOutcome::TrafficWindow w;
      w.label = wj.at("label").as_string();
      w.seconds = static_cast<int>(wj.at(kWindowSeconds).as_number());
      w.mbits = wj.at("mbits").as_number();
      for (const SeriesField& f : kSeriesFields) {
        for (const Json& v : wj.at(std::string(f.key)).as_array()) {
          (w.*f.trial).push_back(v.as_number());
        }
      }
      out.windows.push_back(std::move(w));
    }
  }
  for (const Metric& m : kMetrics) {
    // A gated metric the trial did not arm is absent: with its whole block
    // (block rows are always gated), or at top level the key itself.
    const std::string key(m.key);
    const Json* holder =
        m.block.empty() ? &rj : rj.find(std::string(m.block));
    if (holder == nullptr ||
        (m.gate != nullptr && m.block.empty() && rj.find(key) == nullptr)) {
      continue;
    }
    const Json& v = holder->at(key);
    if (m.gate != nullptr) out.*m.gate = true;
    std::visit([&](auto f) { read_into(out.*f, v); }, m.field);
  }
  return out;
}

namespace {

/// RunnerOptions::sim_threads survives only for callers that assign it 1.
void require_serial(const RunnerOptions& opt) {
  if (opt.sim_threads != 1) {
    throw std::invalid_argument(
        "RunnerOptions::sim_threads must be 1 (the kernel is serial)");
  }
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, const std::string& topology,
                         int controllers, int trial) {
  std::uint64_t h = mix64(base_seed);
  h = mix64(h ^ fnv1a(topology));
  h = mix64(h ^ (static_cast<std::uint64_t>(controllers) << 32) ^
            static_cast<std::uint64_t>(trial));
  return h;
}

TrialOutcome run_timeline(const Scenario& s, sim::ExperimentConfig cfg) {
  return TrialExecutor(s, std::move(cfg)).run();
}

TrialOutcome run_trial(const Scenario& s, const std::string& topology,
                       int controllers, const AxisPoint& axes, int trial,
                       const RunnerOptions& opt) {
  require_serial(opt);
  return run_timeline(
      s, profile_config(s, topology, controllers, axes,
                        trial_seed(s.base_seed, topology, controllers, trial),
                        opt));
}

TrialOutcome run_trial(const Scenario& s, const std::string& topology,
                       int controllers, int trial, const RunnerOptions& opt) {
  return run_trial(s, topology, controllers, AxisPoint{}, trial, opt);
}

CampaignResult run_campaign(const Scenario& s, const RunnerOptions& opt) {
  for (const auto& t : s.topologies) topo::validate_spec(t);  // validate early
  // An event taking a value from the grid needs that axis to exist — fail
  // the campaign up front, not per trial.
  auto require_axis = [&](bool used, const std::string& axis,
                          const std::string& what) {
    if (used && std::none_of(s.axes.begin(), s.axes.end(),
                             [&](const Axis& a) { return a.name == axis; })) {
      throw std::invalid_argument("run_campaign: " + what +
                                  " \"axis\" but the scenario has no \"" +
                                  axis + "\" axis");
    }
  };
  for (const Event& e : s.events) {
    require_axis(e.count == kCountAxis, "victims", "an event uses count");
    require_axis(e.kind == EventKind::StartFlowChurn && e.rate == kRateAxis,
                 "churn_rate", "a start_flow_churn event uses rate");
  }
  if (s.base_seed > kMaxSpecInt) {
    throw std::invalid_argument(
        "run_campaign: seed must be <= 2^53 (the report's JSON number cannot "
        "hold it exactly)");
  }
  if (opt.shard_count < 1 || opt.shard_index < 0 ||
      opt.shard_index >= opt.shard_count) {
    throw std::invalid_argument("run_campaign: shard must satisfy 0 <= k < n");
  }
  require_serial(opt);
  const std::vector<AxisPoint> axis_points = expand_axis_points(s);

  struct GridPoint {
    std::size_t cell;
    std::string topology;
    int controllers;
    std::size_t axis_point;
    int trial;
  };
  std::vector<GridPoint> grid;
  std::size_t cell = 0;
  for (const auto& t : s.topologies) {
    for (int nc : s.controllers) {
      for (std::size_t ap = 0; ap < axis_points.size(); ++ap) {
        for (int r = 0; r < s.trials; ++r) grid.push_back({cell, t, nc, ap, r});
        ++cell;
      }
    }
  }

  // Shard k-of-n: this process runs grid indices ≡ k (mod n). Seeds depend
  // only on grid coordinates, so shards are disjoint and their union is the
  // whole campaign regardless of how it is split.
  auto in_shard = [&](std::size_t i) {
    return static_cast<int>(i % static_cast<std::size_t>(opt.shard_count)) ==
           opt.shard_index;
  };

  std::vector<TrialOutcome> outcomes(grid.size());
  std::vector<char> executed(grid.size(), 0);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= grid.size()) return;
      if (!in_shard(i)) continue;
      const GridPoint& g = grid[i];
      try {
        outcomes[i] = run_trial(s, g.topology, g.controllers,
                                axis_points[g.axis_point], g.trial, opt);
      } catch (const std::exception& e) {
        outcomes[i].ok = false;
        outcomes[i].error = e.what();
      }
      executed[i] = 1;
    }
  };
  int threads = opt.threads > 0
                    ? opt.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  // Size the pool by the trials this process actually runs, not the whole
  // grid: under --shard k/n only every n-th grid point is ours, and a pool
  // sized by grid.size() would spawn workers with nothing to do.
  std::size_t shard_trials = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (in_shard(i)) ++shard_trials;
  }
  threads = std::min<int>(threads, static_cast<int>(
                                       std::max<std::size_t>(shard_trials, 1)));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads > 1 ? threads : 0));
  if (threads <= 1) {
    worker();
  } else {
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // --- Aggregate in grid order (thread-count independent) -----------------
  CampaignResult result;
  result.scenario = s.name;
  result.description = s.description;
  result.profile = opt.paper_timers ? "paper" : "fast";
  result.trials_per_cell = s.trials;
  result.base_seed = s.base_seed;
  result.shard_index = opt.shard_index;
  result.shard_count = opt.shard_count;

  std::size_t at = 0;
  for (const auto& t : s.topologies) {
    for (int nc : s.controllers) {
      for (const AxisPoint& ap : axis_points) {
        std::vector<std::pair<int, TrialOutcome>> cell_outcomes;
        for (int r = 0; r < s.trials; ++r, ++at) {
          if (executed[at] == 0) continue;  // another shard's trial
          cell_outcomes.emplace_back(r, std::move(outcomes[at]));
        }
        result.cells.push_back(aggregate_cell(t, nc, ap,
                                              std::move(cell_outcomes),
                                              opt.include_raw));
      }
    }
  }
  return result;
}

CellResult aggregate_cell(const std::string& topology, int controllers,
                          AxisPoint axes,
                          std::vector<std::pair<int, TrialOutcome>> outcomes,
                          bool include_raw) {
  CellResult cr;
  cr.topology = topology;
  cr.controllers = controllers;
  cr.axes = std::move(axes);
  std::vector<Sample> metric_samples(kMetricCount);
  cr.metrics.resize(kMetricCount);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    cr.metrics[i].reported = kMetrics[i].gate == nullptr;
  }
  // Checkpoint k of every trial aggregates into cr.checkpoints[k] (timeline
  // order), a traffic window into the cr.windows slot of its label (first-
  // seen order); their samples collect alongside, one per table row.
  std::vector<std::array<Sample, kCheckpointFieldCount>> cp_samples;
  std::vector<std::pair<Sample, std::array<SeriesAcc, kSeriesFieldCount>>>
      win_samples;
  for (auto& [r, out] : outcomes) {
    if (!out.ok) {
      cr.errors.push_back("trial " + std::to_string(r) + ": " + out.error);
      continue;
    }
    ++cr.trials;
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      const Metric& m = kMetrics[i];
      if (!reports(m, out)) continue;
      cr.metrics[i].reported = true;
      if (is_flag(m)) {
        cr.metrics[i].count += out.*std::get<bool TrialOutcome::*>(m.field);
      } else {
        metric_samples[i].add(out.*std::get<double TrialOutcome::*>(m.field));
      }
    }
    for (std::size_t k = 0; k < out.checkpoints.size(); ++k) {
      const auto& c = out.checkpoints[k];
      if (k >= cr.checkpoints.size()) {
        cr.checkpoints.emplace_back().label = c.label;
        cp_samples.emplace_back();
      }
      for (std::size_t f = 0; f < kCheckpointFieldCount; ++f) {
        cp_samples[k][f].add(c.*kCheckpointFields[f].trial);
      }
      cr.checkpoints[k].converged += c.converged ? 1 : 0;
      cr.checkpoints[k].trials += 1;
    }
    for (const auto& w : out.windows) {
      auto it = std::find_if(cr.windows.begin(), cr.windows.end(),
                             [&](const auto& a) { return a.label == w.label; });
      if (it == cr.windows.end()) {
        it = cr.windows.emplace(it);
        it->label = w.label;
        win_samples.emplace_back();
      }
      ++it->trials;
      auto& [mbits, series] = win_samples[it - cr.windows.begin()];
      mbits.add(w.mbits);
      for (std::size_t f = 0; f < kSeriesFieldCount; ++f) {
        series[f].add(w.*kSeriesFields[f].trial);
      }
    }
    if (include_raw) cr.raw.emplace_back(r, std::move(out));
  }
  for (std::size_t k = 0; k < cr.checkpoints.size(); ++k) {
    for (std::size_t f = 0; f < kCheckpointFieldCount; ++f) {
      cr.checkpoints[k].*kCheckpointFields[f].cell =
          cp_samples[k][f].percentiles();
    }
  }
  for (std::size_t k = 0; k < cr.windows.size(); ++k) {
    cr.windows[k].mbits = win_samples[k].first.percentiles();
    for (std::size_t f = 0; f < kSeriesFieldCount; ++f) {
      cr.windows[k].*kSeriesFields[f].cell = win_samples[k].second[f].mean();
    }
  }
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    cr.metrics[i].summary = metric_samples[i].percentiles();
  }
  return cr;
}

std::span<const CheckpointField> checkpoint_fields() {
  return kCheckpointFields;
}

std::span<const SeriesField> series_fields() { return kSeriesFields; }

const CellResult::MetricAgg& CellResult::metric(std::string_view key) const {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetrics[i].key == key) return metrics.at(i);
  }
  throw std::out_of_range("CellResult::metric: no metric \"" +
                          std::string(key) + "\"");
}

Json CampaignResult::to_json() const {
  Json doc;
  doc.set("scenario", scenario);
  doc.set("description", description);
  doc.set("profile", profile);
  doc.set("trials_per_cell", trials_per_cell);
  doc.set("seed", base_seed);
  if (shard_count > 1) {
    doc.set("shard_index", shard_index);
    doc.set("shard_count", shard_count);
  }
  Json cells_json{JsonArray{}};
  for (const CellResult& c : cells) {
    Json cj;
    cj.set("topology", c.topology);
    cj.set("controllers", c.controllers);
    if (!c.axes.empty()) {
      Json axes;
      for (const auto& [name, value] : c.axes) axes.set(name, value);
      cj.set("axes", std::move(axes));
    }
    cj.set("trials", c.trials);
    Json cps{JsonArray{}};
    for (const auto& cp : c.checkpoints) {
      Json j;
      j.set("label", cp.label);
      j.set("converged", cp.converged);
      j.set("trials", cp.trials);
      for (const CheckpointField& f : kCheckpointFields) {
        j.set(std::string(f.key), summary_json(cp.*f.cell));
      }
      cps.push_back(std::move(j));
    }
    cj.set("checkpoints", std::move(cps));
    if (!c.windows.empty()) {
      Json wins{JsonArray{}};
      for (const auto& w : c.windows) {
        Json j;
        j.set("label", w.label);
        j.set("trials", w.trials);
        j.set("mbits", summary_json(w.mbits));
        for (const SeriesField& f : kSeriesFields) {
          j.set(std::string(f.key), json_array(w.*f.cell));
        }
        wins.push_back(std::move(j));
      }
      cj.set("traffic_windows", std::move(wins));
    }
    if (!c.errors.empty()) cj.set("errors", json_array(c.errors));
    set_metrics(
        cj, [&](std::size_t i) { return c.metrics.at(i).reported; },
        [&](std::size_t i) {
          const CellResult::MetricAgg& agg = c.metrics[i];
          return is_flag(kMetrics[i]) ? Json(agg.count)
                                      : summary_json(agg.summary);
        });
    if (!c.raw.empty()) {
      Json raws{JsonArray{}};
      for (const auto& [trial, out] : c.raw) {
        Json rj;
        rj.set("trial", trial);
        const Json tj = trial_outcome_json(out);
        for (const auto& [key, value] : tj.as_object()) rj.set(key, value);
        raws.push_back(std::move(rj));
      }
      cj.set("raw", std::move(raws));
    }
    cells_json.push_back(std::move(cj));
  }
  doc.set("cells", std::move(cells_json));
  return doc;
}

}  // namespace ren::scenario
