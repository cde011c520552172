#include "replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "flows/churn.hpp"

namespace renbench {

namespace {

using namespace ren;

// Workload shapes. Every trial runs under the fast timer profile (50 ms task
// delay, 10 ms detection, 100 us links) with 3 controllers.
constexpr const char* kWanSpec = "random_wan:nodes=1024,m=2,seed=1";
constexpr const char* kFatTreeSpec = "fat_tree:k=16";
constexpr double kChurnRate = 80'000;          // flows/s, Pareto arrivals
constexpr Time kChurnLifetime = msec(150);     // mean flow lifetime
constexpr Time kChurnStart = sec(1);
// A 2.5 s window: churn work varies with the seed, so a run averages
// several shorter trials rather than one or two 5 s ones.
constexpr Time kChurnStop = msec(3500);
// Room for the hottest k=16 switch's protected management rules, so the
// flows, not the management rules, take the pressure. The rules needed
// depend on controller placement: at 1500, 1 of 80 sampled placements
// (seeds 1-10, trials 0-7) never bootstrapped; at 2000 all 80 did.
constexpr double kTableCapacity = 2'000;

// Constants of the runner's trial executor (scenario/runner.cpp) that the
// replay must match for the fidelity gate to hold.
constexpr Time kChurnTick = msec(10);
constexpr std::uint64_t kChurnStream = 0x466c6f774368ULL;
constexpr std::uint64_t kFaultStreamSalt = 0x5ce9a5ce9a5ce9aULL;

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t seed_of(const Workload& w, int trial) {
  return scenario::trial_seed(w.scenario.base_seed, w.topology, w.controllers,
                              trial);
}

/// The runner's trial-executor timeline, replayed under a tracer.
class TracedTrial {
 public:
  TracedTrial(const Workload& w, int trial, Tracer& tracer)
      : w_(w),
        tracer_(tracer),
        seed_(seed_of(w, trial)),
        fault_rng_(mix64(seed_ ^ kFaultStreamSalt)) {
    tracer_.begin(Layer::Setup);
    exp_ = std::make_unique<sim::Experiment>(trial_config(w, trial));
    cp_ = exp_->control_plane();
    tracer_.end();
    for (core::Controller* c : exp_->controllers()) attach_probes(*c);
  }

  ReplayResult run() {
    ReplayResult r;
    scenario::TrialOutcome& out = r.outcome;
    for (const scenario::Event& ev : w_.scenario.expanded_events()) {
      if (exp_->sim().now() < ev.at) run_until(ev.at);
      apply(ev, out, r);
    }
    finish(out);
    out.ok = true;
    collect(r);
    return r;
  }

  /// RuleCompiler::compile on the converged true view, once per live
  /// controller (what the monitor's reference compile costs).
  void compile_replay() {
    const flows::TopoView& truth = exp_->monitor().true_view();
    std::map<NodeId, bool> transit;
    for (auto* sw : exp_->switches()) transit[sw->id()] = true;
    for (auto* c : exp_->controllers()) transit[c->id()] = false;
    const flows::RuleCompiler compiler({w_.kappa});
    for (auto* c : exp_->controllers()) {
      if (!c->alive()) continue;
      tracer_.begin(Layer::CompileReplay);
      const flows::CompiledFlowsPtr flows = compiler.compile(truth, c->id(),
                                                             transit);
      tracer_.end();
      if (!flows || flows->per_switch.empty()) {
        throw std::runtime_error("compile replay produced no rules");
      }
    }
  }

  void teardown() {
    tracer_.begin(Layer::Teardown);
    exp_.reset();
    tracer_.end();
  }

 private:
  void attach_probes(core::Controller& c) {
    c.set_iteration_probe([this, &c](bool begin) {
      if (begin) {
        flows_before_ = c.current_flows();
        tracer_.begin(Layer::Steady);
        return;
      }
      const bool swapped = c.current_flows() != flows_before_;
      tracer_.end_as(swapped ? Layer::Recompile : Layer::Steady);
      ++(swapped ? recompiles_ : steady_);
      flows_before_.reset();
    });
    c.set_fanout_probe([this](bool begin) {
      if (begin) {
        tracer_.begin(Layer::Fanout);
      } else {
        tracer_.end();
      }
    });
  }

  void run_until(Time t) {
    tracer_.begin(Layer::RunUntil);
    exp_->sim().run_until(t);
    tracer_.end();
  }

  using Status = core::LegitimacyMonitor::Status;

  Status check() {
    tracer_.begin(Layer::Check);
    Status s = exp_->monitor().check();
    tracer_.end();
    return s;
  }

  void apply(const scenario::Event& ev, scenario::TrialOutcome& out,
             ReplayResult& r) {
    using scenario::EventKind;
    switch (ev.kind) {
      case EventKind::KillController:
        tracer_.begin(Layer::Fault);
        faults::kill_random_controllers(cp_, fault_rng_, ev.count);
        tracer_.end();
        break;
      case EventKind::RestartNodes:
        tracer_.begin(Layer::Fault);
        faults::restart_all_nodes(cp_);
        tracer_.end();
        break;
      case EventKind::ExpectConverged: {
        const auto [converged, seconds] = run_until_legitimate(ev.limit);
        scenario::TrialOutcome::Checkpoint cp;
        cp.label = ev.label;
        cp.converged = converged;
        cp.seconds = converged ? seconds : to_seconds(ev.limit);
        out.checkpoints.push_back(std::move(cp));
        if (out.checkpoints.size() == 1) {
          // Not part of the trial: kept out of the replay's wall time.
          const std::int64_t t0 = tracer_.now_ns();
          r.achievable_kappa = exp_->monitor().achievable_kappa();
          r.excluded_ns += tracer_.now_ns() - t0;
        }
        break;
      }
      case EventKind::StartFlowChurn:
        start_flow_churn(ev);
        break;
      case EventKind::StopFlowChurn:
        churn_running_ = false;
        while (!active_.empty()) retire(active_.begin());
        break;
      default:
        throw std::logic_error(std::string("replay: unsupported event ") +
                               scenario::to_string(ev.kind));
    }
  }

  /// sim::Experiment::run_until_legitimate, step for step.
  std::pair<bool, double> run_until_legitimate(Time limit) {
    net::Simulator& sim = exp_->sim();
    core::LegitimacyMonitor& monitor = exp_->monitor();
    const sim::ExperimentConfig& cfg = exp_->config();
    const Time t0 = sim.now();
    const Time fine_step = std::max<Time>(Time{1}, cfg.monitor_interval / 8);
    const Time deadline = t0 + limit;
    std::uint64_t checked_epoch = monitor.stack_epoch() - 1;
    bool converged = false;
    while (sim.now() < deadline) {
      const Time ceiling = sim.now() + cfg.monitor_interval;
      if (cfg.adaptive_monitor) {
        while (sim.now() < ceiling && monitor.stack_epoch() == checked_epoch) {
          const Time next = sim.next_event_time();
          if (next > deadline) break;
          if (next >= ceiling) {
            run_until(next);
            break;
          }
          run_until(std::min(ceiling, std::max(next, sim.now() + fine_step)));
        }
      } else {
        run_until(ceiling);
      }
      const Status status = check();
      checked_epoch = monitor.stack_epoch();
      if (status.legitimate) {
        converged = true;
        break;
      }
      if (sim.next_event_time() > deadline) break;
      if (cfg.max_events > 0 && sim.events_executed() >= cfg.max_events) break;
    }
    return {converged, to_seconds(sim.now() - t0)};
  }

  void start_flow_churn(const scenario::Event& ev) {
    flows::ChurnConfig ccfg;
    ccfg.rate = ev.rate;
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

  void churn_tick() {
    if (!churn_running_) return;
    const Time now = exp_->sim().now();
    arrivals_.clear();
    tracer_.begin(Layer::ChurnAdvance);
    churn_->advance(now, arrivals_);
    tracer_.end();
    for (const flows::FlowArrival& a : arrivals_) install(a);
    while (!active_.empty() && active_.begin()->first.first <= now) {
      retire(active_.begin());
    }
    exp_->sim().schedule(kChurnTick, [this] { churn_tick(); });
  }

  /// One microflow entry per hop of the flow's shortest path. The next hops
  /// are resolved before the installs (the runner interleaves them); both
  /// only read the generator's cached BFS tree, so the order is immaterial.
  void install(const flows::FlowArrival& a) {
    tracer_.begin(Layer::ChurnPath);
    churn_->path_hops(a.src, a.dst, hops_);
    fwd_.clear();
    for (NodeId v : hops_) fwd_.push_back(churn_->next_hop(v, a.dst));
    tracer_.end();
    if (hops_.empty()) return;
    switchd::FlowRule rule;
    rule.id = a.id;
    rule.src = a.src;
    rule.dst = a.dst;
    rule.prt = a.prt;
    const auto& switches = exp_->switches();
    tracer_.begin(Layer::RuleInstall);
    for (std::size_t i = 0; i < hops_.size(); ++i) {
      rule.fwd = fwd_[i];
      switches[static_cast<std::size_t>(hops_[i])]->rule_table().install_flow(
          rule);
    }
    tracer_.end();
    active_.emplace(std::pair{a.at + a.duration, a.id}, hops_);
  }

  using ActiveFlows =
      std::map<std::pair<Time, std::uint64_t>, std::vector<NodeId>>;

  void retire(ActiveFlows::iterator it) {
    const std::uint64_t id = it->first.second;
    const auto& switches = exp_->switches();
    tracer_.begin(Layer::RuleRemove);
    for (NodeId v : it->second) {
      (void)switches[static_cast<std::size_t>(v)]->rule_table().remove_flow(id);
    }
    tracer_.end();
    active_.erase(it);
  }

  void finish(scenario::TrialOutcome& out) {
    if (churn_) {
      out.has_table = true;
      out.tbl_arrivals = static_cast<double>(churn_->arrivals());
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

  void collect(ReplayResult& r) const {
    r.recompiles = recompiles_;
    r.steady = steady_;
    for (const core::Controller* c : exp_->controllers()) {
      const core::PlannerStats& p = c->batch_planner().stats();
      r.planner.rotated += p.rotated;
      r.planner.cloned += p.cloned;
      r.planner.gate_rotations += p.gate_rotations;
      r.planner.full_plans += p.full_plans;
      const core::ViewCache::Stats& v = c->view_cache().stats();
      r.views.refreshes += v.refreshes;
      r.views.hits += v.hits;
      r.views.rebuilds += v.rebuilds;
      r.retransmissions += c->endpoint().retransmissions();
    }
    r.monitor = exp_->monitor().stats();
    for (const auto* sw : exp_->switches()) {
      const auto& fs = sw->rule_table().flow_stats();
      r.evictions += fs.flow_evictions;
      r.overflow_rejects += fs.overflow_rejects;
      r.lookup_cost += fs.lookup_cost;
    }
    const net::Counters& k = exp_->sim().counters();
    r.events = exp_->sim().events_executed();
    r.packets_sent = k.packets_sent;
    r.drops = k.drops_link_down + k.drops_queue + k.drops_dead_node +
              k.drops_ttl + k.drops_no_rule + k.drops_ambiguous_rule;
  }

  const Workload& w_;
  Tracer& tracer_;
  std::uint64_t seed_;
  Rng fault_rng_;
  std::unique_ptr<sim::Experiment> exp_;
  faults::ControlPlane cp_;
  flows::CompiledFlowsPtr flows_before_;
  std::uint64_t recompiles_ = 0;
  std::uint64_t steady_ = 0;

  std::unique_ptr<flows::ChurnGenerator> churn_;
  bool churn_running_ = false;
  ActiveFlows active_;
  std::vector<flows::FlowArrival> arrivals_;
  std::vector<NodeId> hops_;
  std::vector<NodeId> fwd_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"boot_wan1024", "churn_k16",
                                                 "restart_ebone"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  scenario::Scenario& s = w.scenario;
  s.name = "renbench_" + name;
  if (name == "boot_wan1024") {
    // Bootstrap to legitimacy on a 1k-node WAN: myRules compile dominates.
    // The fabric is 2-edge-connected, so it runs at kappa = 1.
    w.topology = kWanSpec;
    w.kappa = 1;
    w.fabric_kappa = 1;
    w.axes = {{"kappa", 1.0}};
    s.expect_converged(0, "bootstrap", sec(120));
  } else if (name == "churn_k16") {
    // Bootstrap, then heavy-tailed flow churn against capacity-limited
    // tables: the data plane (rule table, packet path) dominates.
    w.topology = kFatTreeSpec;
    w.table_capacity = kTableCapacity;
    w.axes = {{"table_capacity", kTableCapacity}};
    s.expect_converged(0, "bootstrap", sec(120));
    s.start_flow_churn(kChurnStart, kChurnRate, kChurnLifetime);
    s.stop_flow_churn(kChurnStop);
  } else if (name == "restart_ebone") {
    // Rolling controller restarts: recovery plus steady stretches, so the
    // controller layers run incrementally, not from an empty state. This is
    // the builtin rolling_restart timeline (3 kill + revive rounds, 7
    // checkpoints) with 4 s rounds instead of 25 s: trial cost varies with
    // the seed and the host's speed drifts over seconds, so a run takes the
    // median of several shorter trials. Each checkpoint converges in well
    // under a second, so every round still ends in a steady stretch. It
    // keeps kappa = 2 although EBONE is only 2-edge-connected (the compiler
    // then emits as many disjoint paths as exist), so the fabric check asks
    // for kappa 1.
    w.topology = "EBONE";
    w.fabric_kappa = 1;
    s.expect_converged(0, "bootstrap", sec(120));
    for (int round = 0; round < 3; ++round) {
      const Time base = sec(2 + 4 * round);
      const std::string r = std::to_string(round);
      s.kill_controller(base);
      s.expect_converged(base, "degraded_" + r, sec(120));
      s.restart_nodes(base + sec(2));
      s.expect_converged(base + sec(2), "restored_" + r, sec(120));
    }
  } else {
    std::string known;
    for (const auto& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload \"" + name +
                                "\"; known:" + known);
  }
  s.topologies = {w.topology};
  s.controllers = {w.controllers};
  s.trials = 1;
  s.base_seed = seed;
  return w;
}

sim::ExperimentConfig trial_config(const Workload& w, int trial) {
  sim::ExperimentConfig cfg;
  cfg.topology = w.topology;
  cfg.controllers = w.controllers;
  cfg.kappa = 2;
  cfg.seed = seed_of(w, trial);
  cfg.task_delay = msec(50);
  cfg.detect_interval = msec(10);
  cfg.monitor_interval = msec(25);
  cfg.link_latency = usec(100);
  cfg.theta = 10;
  cfg.rule_retention = 3;
  cfg.max_events = w.scenario.max_events;
  for (const auto& [name, value] : w.axes) sim::apply_axis(cfg, name, value);
  cfg.with_hosts = w.scenario.needs_hosts();
  cfg.sim_threads = 1;
  return cfg;
}

std::string check_outcome(const Workload& w,
                          const scenario::TrialOutcome& out) {
  if (!out.ok) return "trial threw: " + out.error;
  if (out.checkpoints.empty()) return "no checkpoints";
  for (const auto& cp : out.checkpoints) {
    if (!cp.converged) return "checkpoint " + cp.label + " did not converge";
  }
  if (w.table_capacity > 0) {
    if (!out.has_table) return "no table report";
    if (!(out.tbl_evictions + out.tbl_overflows > 0)) {
      return "table capacity never bit (no evictions or overflows)";
    }
    if (out.tbl_peak_rules > w.table_capacity) {
      return "peak rules exceed the table capacity";
    }
  }
  return "";
}

double converge_seconds(const scenario::TrialOutcome& out) {
  double s = 0;
  for (const auto& cp : out.checkpoints) s += cp.seconds;
  return s;
}

ReplayResult replay_trial(const Workload& w, int trial, Tracer& tracer) {
  const std::int64_t t0 = tracer.now_ns();
  TracedTrial t(w, trial, tracer);
  ReplayResult r = t.run();
  const std::int64_t t1 = tracer.now_ns();
  t.compile_replay();
  const std::int64_t t2 = tracer.now_ns();
  t.teardown();
  const std::int64_t t3 = tracer.now_ns();
  r.wall_s =
      static_cast<double>((t1 - t0) - r.excluded_ns + (t3 - t2)) * 1e-9;
  return r;
}

}  // namespace renbench
