#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "scenario/scenario.hpp"
#include "topo/source.hpp"
#include "util/log.hpp"

namespace ren::sim {

namespace {

long long integral_axis(const std::string& name, double value, long long min,
                        long long max) {
  if (!std::isfinite(value) || value != std::round(value) ||
      value < static_cast<double>(min) || value > static_cast<double>(max)) {
    throw std::invalid_argument("axis \"" + name + "\": value must be an " +
                                "integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return static_cast<long long>(value);
}

constexpr long long kIntMax = std::numeric_limits<int>::max();

}  // namespace

const std::vector<std::string>& axis_names() {
  static const std::vector<std::string> names = {
      "kappa",     "theta",      "task_delay_ms",
      "link_loss", "victims",    "churn_rate",
      "table_capacity"};
  return names;
}

void apply_axis(ExperimentConfig& cfg, const std::string& name, double value) {
  if (name == "kappa") {
    cfg.kappa = static_cast<int>(integral_axis(name, value, 0, kIntMax));
  } else if (name == "theta") {
    cfg.theta = static_cast<int>(integral_axis(name, value, 1, kIntMax));
  } else if (name == "task_delay_ms") {
    // The delay in microseconds must fit Time; the comparison is strict
    // because the largest Time rounds up to 2^63 as a double.
    if (!(value > 0) ||
        !(value * 1000.0 < static_cast<double>(kTimeNever))) {
      throw std::invalid_argument(
          "axis \"task_delay_ms\": value must be > 0 and fit in "
          "microseconds of simulated time");
    }
    cfg.task_delay = usec(std::llround(value * 1000.0));
    // Keep the profile's 5:1 task:detect ratio with a 5 ms floor — the rule
    // the Fig. 7 harness used (both timer profiles ship the same ratio).
    cfg.detect_interval = std::max<Time>(msec(5), cfg.task_delay / 5);
  } else if (name == "link_loss") {
    if (!(value >= 0.0) || value >= 1.0) {
      throw std::invalid_argument("axis \"link_loss\": value must be in [0, 1)");
    }
    cfg.link_loss = value;
  } else if (name == "victims") {
    cfg.victims = static_cast<int>(integral_axis(name, value, 1, kIntMax));
  } else if (name == "churn_rate") {
    if (!(value > 0) || !std::isfinite(value)) {
      throw std::invalid_argument(
          "axis \"churn_rate\": value must be finite and > 0");
    }
    cfg.churn_rate = value;
  } else if (name == "table_capacity") {
    cfg.max_rules = static_cast<std::size_t>(integral_axis(
        name, value, 1, static_cast<long long>(scenario::kMaxSpecInt)));
  } else {
    std::string known;
    for (const auto& n : axis_names()) known += " " + n;
    throw std::invalid_argument("unknown axis \"" + name + "\"; known:" + known);
  }
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      topo_(topo::resolve(config_.topology)),
      sim_(config_.seed),
      fault_rng_(config_.seed ^ 0xfa17fa17ULL) {
  build();
}

void Experiment::build() {
  if (config_.sim_threads != 1) {
    throw std::invalid_argument(
        "ExperimentConfig::sim_threads must be 1 (the kernel is serial)");
  }
  const int n_switches = topo_.switch_graph.n();
  const int n_controllers = config_.controllers;

  std::size_t max_replies = config_.max_replies;
  if (max_replies == 0) {
    max_replies =
        2 * static_cast<std::size_t>(n_switches + n_controllers) + 4;
  }

  // Switches: ids 0..n_switches-1 (same ids as the topology graph).
  switchd::AbstractSwitch::Config sw_cfg;
  sw_cfg.max_rules = config_.max_rules;
  sw_cfg.max_managers = config_.max_managers;
  sw_cfg.tick_interval = config_.task_delay;
  sw_cfg.detect_interval = config_.detect_interval;
  sw_cfg.theta = config_.theta;
  for (int i = 0; i < n_switches; ++i) {
    switches_.push_back(
        &sim_.emplace_node<switchd::AbstractSwitch>(i, sw_cfg));
  }

  // Controllers: ids n_switches..n_switches+n_controllers-1.
  core::Controller::Config c_cfg;
  c_cfg.kappa = config_.kappa;
  c_cfg.task_delay = config_.task_delay;
  c_cfg.detect_interval = config_.detect_interval;
  c_cfg.theta = config_.theta;
  c_cfg.max_replies = max_replies;
  c_cfg.memory_adaptive = config_.memory_adaptive;
  c_cfg.rule_retention = config_.rule_retention;
  c_cfg.paranoid_views = config_.views_paranoid;
  c_cfg.paranoid_batches = config_.batches_paranoid;
  for (int k = 0; k < n_controllers; ++k) {
    controllers_.push_back(&sim_.emplace_node<core::Controller>(
        static_cast<NodeId>(n_switches + k), c_cfg));
  }

  // Physical links: the switch fabric.
  net::LinkParams lp;
  lp.latency = config_.link_latency;
  lp.bandwidth_bps = config_.link_bandwidth_bps;
  lp.max_queue_delay = config_.link_max_queue_delay;
  lp.faults.loss = config_.link_loss;
  lp.faults.duplicate = config_.link_duplicate;
  lp.faults.reorder = config_.link_reorder;
  lp.faults.reorder_delay_max = 2 * config_.link_latency;
  lp.faults.corrupt = config_.link_corrupt;
  for (int u = 0; u < n_switches; ++u) {
    for (int v : topo_.switch_graph.neighbors(u)) {
      if (u < v) sim_.add_link(u, v, lp);
    }
  }

  // Attach each controller to kappa+1 distinct switches. Deterministic per
  // (seed, controller index) so that growing the controller count (Fig. 6)
  // does not move earlier controllers around.
  for (int k = 0; k < n_controllers; ++k) {
    Rng attach_rng(config_.seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<std::uint64_t>(k) + 1);
    std::vector<int> candidates(static_cast<std::size_t>(n_switches));
    for (int i = 0; i < n_switches; ++i) candidates[static_cast<std::size_t>(i)] = i;
    attach_rng.shuffle(candidates);
    const int attach_count =
        std::min(config_.kappa + 1, n_switches);
    for (int a = 0; a < attach_count; ++a) {
      sim_.add_link(controllers_[static_cast<std::size_t>(k)]->id(),
                    candidates[static_cast<std::size_t>(a)], lp);
    }
  }

  // Optional host pair at maximum switch-graph distance.
  if (config_.with_hosts) {
    int best_a = 0, best_b = 0, best_d = -1;
    for (int s = 0; s < n_switches; ++s) {
      const auto dist = topo_.switch_graph.bfs_dist(s);
      for (int t = 0; t < n_switches; ++t) {
        if (dist[static_cast<std::size_t>(t)] > best_d) {
          best_d = dist[static_cast<std::size_t>(t)];
          best_a = s;
          best_b = t;
        }
      }
    }
    const auto ha = static_cast<NodeId>(n_switches + n_controllers);
    const auto hb = static_cast<NodeId>(n_switches + n_controllers + 1);
    host_a_ = &sim_.emplace_node<tcp::Host>(ha, best_a);
    host_b_ = &sim_.emplace_node<tcp::Host>(hb, best_b);
    sim_.add_link(ha, best_a, lp);
    sim_.add_link(hb, best_b, lp);
  }

  // Start every node (schedules the do-forever and discovery timers).
  for (std::size_t i = 0; i < sim_.node_count(); ++i) {
    sim_.node(static_cast<NodeId>(i)).start();
  }

  core::LegitimacyMonitor::Config m_cfg;
  m_cfg.kappa = config_.kappa;
  m_cfg.paranoid = config_.monitor_paranoid;
  monitor_ = std::make_unique<core::LegitimacyMonitor>(sim_, controllers_,
                                                       switches_, m_cfg);
}

faults::ControlPlane Experiment::control_plane() {
  faults::ControlPlane cp;
  cp.sim = &sim_;
  cp.controllers = controllers_;
  cp.switches = switches_;
  if (host_a_ != nullptr) cp.protected_switches.push_back(host_a_->attach());
  if (host_b_ != nullptr) cp.protected_switches.push_back(host_b_->attach());
  return cp;
}

Experiment::ConvergenceResult Experiment::run_until_legitimate(Time limit) {
  ConvergenceResult result;
  const Time t0 = sim_.now();
  const auto& counters = sim_.counters();

  std::vector<std::uint64_t> iter0, msg0, cmd0;
  for (const auto* c : controllers_) {
    const auto idx = static_cast<std::size_t>(c->id());
    iter0.push_back(counters.iterations[idx]);
    msg0.push_back(counters.ctrl_messages_sent[idx]);
    cmd0.push_back(counters.ctrl_commands_sent[idx]);
  }

  // Adaptive sampling: instead of blindly checking every monitor_interval,
  // advance the simulation in fine steps and consult the monitor as soon as
  // some layer's change epoch moved — convergence is timestamped at finer
  // resolution and quiet stretches cost one cheap epoch read per step. The
  // old fixed interval remains the ceiling between checks, so even a
  // (hypothetical) untracked mutation is picked up at the seed's rate.
  const Time fine_step =
      std::max<Time>(Time{1}, config_.monitor_interval / 8);
  const Time deadline = t0 + limit;
  std::uint64_t checked_epoch = monitor_->stack_epoch() - 1;  // force check
  while (sim_.now() < deadline) {
    const Time ceiling = sim_.now() + config_.monitor_interval;
    if (config_.adaptive_monitor) {
      while (sim_.now() < ceiling &&
             monitor_->stack_epoch() == checked_epoch) {
        // now() only advances by executing events — aim each step at the
        // next event when the fine window is quiet, else this loop spins.
        const Time next = sim_.next_event_time();
        if (next > deadline) break;  // nothing can happen before the deadline
        if (next >= ceiling) {
          sim_.run_until(next);  // quiet gap: jump to the next activity
          break;
        }
        sim_.run_until(std::min(ceiling, std::max(next, sim_.now() + fine_step)));
      }
    } else {
      sim_.run_until(ceiling);
    }
    const auto status = monitor_->check();
    checked_epoch = monitor_->stack_epoch();
    result.last_reason = status.reason;
    if (status.legitimate) {
      result.converged = true;
      break;
    }
    // No event before the deadline means no epoch can move and the verdict
    // cannot change (covers a fully drained queue, kTimeNever): stop now
    // instead of spinning the wall clock on a frozen simulated clock.
    if (sim_.next_event_time() > deadline) break;
    // Event budget exhausted (Fig. 7's congestion ceiling): report the cap.
    if (config_.max_events > 0 && sim_.events_executed() >= config_.max_events) {
      result.last_reason = "event budget exhausted";
      break;
    }
  }
  result.seconds = to_seconds(sim_.now() - t0);
  for (std::size_t k = 0; k < controllers_.size(); ++k) {
    const auto idx = static_cast<std::size_t>(controllers_[k]->id());
    result.iterations.push_back(counters.iterations[idx] - iter0[k]);
    result.messages.push_back(counters.ctrl_messages_sent[idx] - msg0[k]);
    result.commands.push_back(counters.ctrl_commands_sent[idx] - cmd0[k]);
  }
  return result;
}

std::vector<NodeId> Experiment::data_path_between(tcp::Host* from,
                                                  tcp::Host* to) {
  if (from == nullptr || to == nullptr) return {};
  const auto walk =
      switchd::RuleForwarding(sim_.network(), switches_)
          .walk(from->id(), to->id(), {from->attach()},
                4 * static_cast<int>(sim_.node_count()));
  return walk.delivered ? walk.path : std::vector<NodeId>{};
}

std::vector<NodeId> Experiment::current_data_path() {
  return data_path_between(host_a_, host_b_);
}

std::pair<NodeId, NodeId> Experiment::pick_failover_link(
    const std::vector<NodeId>& path) {
  // Candidate edges: switch-switch links on the path (skip host attach
  // edges at both ends). The paper chooses a link "such that it enables a
  // backup path between the hosts": prefer, from the middle outward, a link
  // whose failure the installed fast-failover rules survive locally (the
  // data path stays walkable without any controller recomputation); any
  // connectivity-preserving link is the fallback.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 1; i + 2 < path.size(); ++i) {
    edges.emplace_back(path[i], path[i + 1]);
  }
  if (edges.empty()) return {kNoNode, kNoNode};
  std::vector<std::size_t> order;
  const std::size_t mid = edges.size() / 2;
  for (std::size_t off = 0; off < edges.size(); ++off) {
    if (mid >= off) order.push_back(mid - off);
    if (off > 0 && mid + off < edges.size()) order.push_back(mid + off);
  }
  // Probing a candidate never changes the live topology (survives_locally
  // restores the link's state), so one snapshot answers every candidate.
  auto cp = control_plane();
  flows::ConnectivityProbe probe(faults::control_topology(cp));
  auto keeps_connected = [&](NodeId a, NodeId b) {
    return !probe.empty() && probe.connected_without_edge(a, b);
  };
  auto survives_locally = [&](NodeId a, NodeId b) {
    net::Link* l = sim_.network().find_link(a, b);
    if (l == nullptr) return false;
    const net::LinkState prior = l->state();
    l->set_state(net::LinkState::TransientDown);
    // Both directions must survive: data forward, acks backward.
    const bool ok = !data_path_between(host_a_, host_b_).empty() &&
                    !data_path_between(host_b_, host_a_).empty();
    l->set_state(prior);
    return ok;
  };
  std::pair<NodeId, NodeId> fallback{kNoNode, kNoNode};
  for (std::size_t idx : order) {
    const auto [a, b] = edges[idx];
    if (!keeps_connected(a, b)) continue;
    if (survives_locally(a, b)) return {a, b};
    if (fallback.first == kNoNode) fallback = {a, b};
  }
  return fallback;
}

core::Controller* Experiment::register_default_data_flow(
    core::Controller* owner) {
  if (host_a_ == nullptr || host_b_ == nullptr) {
    throw std::logic_error(
        "register_default_data_flow requires with_hosts=true");
  }
  if (owner == nullptr) {
    for (auto* c : controllers_) {
      if (c->alive()) {
        owner = c;
        break;
      }
    }
  }
  if (owner == nullptr) {
    throw std::logic_error("register_default_data_flow: no live controller");
  }
  core::Controller::DataFlowSpec spec;
  spec.host_a = host_a_->id();
  spec.attach_a = host_a_->attach();
  spec.host_b = host_b_->id();
  spec.attach_b = host_b_->attach();
  owner->register_data_flow(spec);
  return owner;
}

std::pair<NodeId, NodeId> Experiment::fail_data_path_link(
    Time detection_delay) {
  const auto link = pick_failover_link(current_data_path());
  if (link.first == kNoNode) return link;
  // Blackhole first (port-down detection window), then hard failure.
  sim_.set_link_state(link.first, link.second, net::LinkState::Blackhole);
  sim_.schedule(detection_delay, [this, link] {
    sim_.set_link_state(link.first, link.second, net::LinkState::PermanentDown);
  });
  REN_LOG(Info, "t=%.3fs failed link %d-%d", to_seconds(sim_.now()),
          link.first, link.second);
  return link;
}

Experiment::ThroughputResult Experiment::run_throughput(
    const ThroughputRun& run) {
  ThroughputResult result;
  if (host_a_ == nullptr || host_b_ == nullptr) {
    throw std::logic_error("run_throughput requires with_hosts=true");
  }

  // 1. Bootstrap the control plane.
  const auto boot = run_until_legitimate(sec(300));
  if (!boot.converged) return result;

  // 2. Provision the host<->host flow; wait until the rules are walkable
  //    end-to-end.
  register_default_data_flow();
  const Time install_deadline = sim_.now() + sec(30);
  while (sim_.now() < install_deadline && current_data_path().empty()) {
    sim_.run_until(sim_.now() + config_.task_delay);
  }
  result.primary_path = current_data_path();
  if (result.primary_path.empty()) return result;

  // 3. Start the TCP flow.
  tcp::FlowStats stats(sim_.now());
  host_b_->make_receiver(host_a_->id(), run.tcp, &stats);
  auto& sender = host_a_->make_sender(host_b_->id(), run.tcp, &stats);
  const Time t0 = sim_.now();
  sender.start(t0);

  // 4. Schedule the mid-path link failure (freezing controllers first in
  //    the no-recovery variant of Fig. 16).
  sim_.schedule_at(t0 + run.fail_at, [this, &run, &result] {
    if (!run.with_recovery) {
      for (auto* c : controllers_) c->set_frozen(true);
    }
    result.failed_link = fail_data_path_link(run.detection_delay);
  });

  // 5. Run the measurement window and collect the per-second series.
  sim_.run_until(t0 + run.duration);
  sender.stop();
  for (auto* c : controllers_) c->set_frozen(false);

  const int seconds = static_cast<int>(run.duration / sec(1));
  result.mbits = stats.mbits_series(seconds);
  result.retx_pct = stats.retransmission_pct(seconds);
  result.bad_pct = stats.bad_tcp_pct(seconds);
  result.ooo_pct = stats.out_of_order_pct(seconds);
  result.ok = true;
  return result;
}

}  // namespace ren::sim
