#include "core/legitimacy.hpp"

#include <algorithm>
#include <stdexcept>

namespace ren::core {

LegitimacyMonitor::LegitimacyMonitor(
    net::Simulator& sim, std::vector<Controller*> controllers,
    std::vector<switchd::AbstractSwitch*> switches, Config config)
    : sim_(sim),
      controllers_(std::move(controllers)),
      switches_(std::move(switches)),
      config_(config),
      compiler_(flows::RuleCompiler::Config{config.kappa}) {}

std::vector<Controller*> LegitimacyMonitor::live_controllers() const {
  std::vector<Controller*> out;
  for (Controller* c : controllers_) {
    if (c->alive()) out.push_back(c);
  }
  return out;
}

std::vector<switchd::AbstractSwitch*> LegitimacyMonitor::live_switches() const {
  std::vector<switchd::AbstractSwitch*> out;
  for (auto* s : switches_) {
    if (s->alive()) out.push_back(s);
  }
  return out;
}

std::vector<NodeId> LegitimacyMonitor::live_ids() const {
  std::vector<NodeId> ids;
  for (const auto* c : controllers_) {
    if (c->alive()) ids.push_back(c->id());
  }
  for (const auto* s : switches_) {
    if (s->alive()) ids.push_back(s->id());
  }
  return ids;
}

const flows::TopoView& LegitimacyMonitor::true_view() const {
  const std::uint64_t topo = sim_.network().epoch();
  if (!truth_valid_ || truth_epoch_ != topo) {
    truth_ = flows::live_topology(sim_.network(), live_ids());
    truth_epoch_ = topo;
    truth_valid_ = true;
    ++stats_.truth_rebuilds;
  }
  return truth_;
}

int LegitimacyMonitor::achievable_kappa() {
  const std::uint64_t topo = sim_.network().epoch();
  if (kappa_valid_ && kappa_epoch_ == topo) return achievable_kappa_;
  // Compact the true fabric into an index-dense Graph (node ids go sparse
  // once nodes die); FlatView indices follow sorted id order.
  const flows::TopoView& truth = true_view();
  flows::FlatView flat;
  flat.assign(truth);
  flows::Graph g(flat.n());
  for (const auto& [n, nbrs] : truth.adj()) {
    for (NodeId v : nbrs) g.add_edge(flat.index_of(n), flat.index_of(v));
  }
  achievable_kappa_ = std::max(0, g.edge_connectivity() - 1);
  kappa_epoch_ = topo;
  kappa_valid_ = true;
  return achievable_kappa_;
}

std::uint64_t LegitimacyMonitor::stack_epoch() const {
  // Sum of monotonic counters: strictly increases whenever any one bumps.
  std::uint64_t e = sim_.network().epoch();
  for (const Controller* c : controllers_) e += c->change_epoch();
  for (const auto* s : switches_) e += s->change_epoch();
  return e;
}

std::uint64_t LegitimacyMonitor::walk_epoch() const {
  // Walks read topology, controller flows and rule content — but never the
  // manager sets, so manager churn must not invalidate the walk memo.
  std::uint64_t e = sim_.network().epoch();
  for (const Controller* c : controllers_) e += c->change_epoch();
  for (const auto* s : switches_) e += s->rule_table().epoch();
  return e;
}

std::uint64_t LegitimacyMonitor::live_signature() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Controller* c : controllers_) {
    if (!c->alive()) continue;
    h ^= static_cast<std::uint64_t>(c->id()) + 1;
    h *= 1099511628211ULL;
  }
  return h;
}

LegitimacyMonitor::Status LegitimacyMonitor::check() {
  ++stats_.checks;
  Status st;
  if (const std::uint64_t epoch = stack_epoch();
      verdict_valid_ && epoch == verdict_epoch_) {
    ++stats_.short_circuits;
    st = verdict_;
  } else {
    ++stats_.full_evaluations;
    st = evaluate(true_view(), /*fresh=*/false);
    verdict_ = st;
    verdict_epoch_ = epoch;
    verdict_valid_ = true;
  }
  if (config_.paranoid) {
    ++stats_.paranoid_shadows;
    const Status full = check_full();
    if (full.legitimate != st.legitimate) {
      throw std::logic_error(
          "legitimacy divergence: incremental says " +
          std::string(st.legitimate ? "legitimate" : ("\"" + st.reason + "\"")) +
          ", full check says " +
          std::string(full.legitimate ? "legitimate"
                                      : ("\"" + full.reason + "\"")));
    }
  }
  return st;
}

LegitimacyMonitor::Status LegitimacyMonitor::check_full() {
  const flows::TopoView truth =
      flows::live_topology(sim_.network(), live_ids());
  ++stats_.truth_rebuilds;
  return evaluate(truth, /*fresh=*/true);
}

LegitimacyMonitor::Status LegitimacyMonitor::evaluate(
    const flows::TopoView& truth, bool fresh) {
  const auto live = live_controllers();
  if (live.empty()) return {false, "no live controller"};

  if (Status s = check_views(truth, fresh); !s.legitimate) return s;
  if (Status s = check_managers(fresh); !s.legitimate) return s;
  if (Status s = check_rules(truth, fresh); !s.legitimate) return s;
  if (Status s = check_walks(truth, fresh); !s.legitimate) return s;
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_views(
    const flows::TopoView& truth, bool fresh) {
  const std::uint64_t topo = sim_.network().epoch();
  for (Controller* c : live_controllers()) {
    if (!fresh) {
      const auto memo = views_ok_.find(c->id());
      if (memo != views_ok_.end() &&
          memo->second == std::make_pair(c->change_epoch(), topo))
        continue;
    }
    ++stats_.view_compares;
    if (!(c->fused_view() == truth)) {
      return {false, "controller " + std::to_string(c->id()) + " view != Gc"};
    }
    if (!fresh) views_ok_[c->id()] = {c->change_epoch(), topo};
  }
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_managers(bool fresh) {
  std::vector<NodeId> expected;
  for (Controller* c : live_controllers()) expected.push_back(c->id());
  std::sort(expected.begin(), expected.end());
  const std::uint64_t live_sig = live_signature();
  for (auto* s : live_switches()) {
    if (!fresh) {
      const auto memo = managers_ok_.find(s->id());
      if (memo != managers_ok_.end() &&
          memo->second == std::make_pair(s->manager_epoch(), live_sig))
        continue;
    }
    ++stats_.manager_checks;
    std::vector<NodeId> got = s->managers();
    std::sort(got.begin(), got.end());
    if (got != expected) {
      return {false, "switch " + std::to_string(s->id()) +
                         " managers != live controllers"};
    }
    if (!fresh) managers_ok_[s->id()] = {s->manager_epoch(), live_sig};
  }
  return {true, ""};
}

const std::map<NodeId, proto::RuleListPtr>& LegitimacyMonitor::reference_rules(
    Controller* c, const flows::TopoView& truth,
    const std::map<NodeId, bool>& transit, bool fresh) {
  const std::uint64_t fp = truth.fingerprint();
  ReferenceCache& rc = reference_[c->id()];
  if (!fresh && rc.truth_fingerprint == fp &&
      rc.data_flow_revision == c->data_flow_revision() && !rc.per_switch.empty()) {
    return rc.per_switch;
  }
  ++stats_.reference_compiles;
  // Reference compilation, merged with the controller's data flows exactly
  // like Controller::rebuild_merged_rules does.
  const auto expected = compiler_.compile_cached(truth, c->id(), transit);
  if (config_.paranoid &&
      !flows::identical_flows(
          *expected, *compiler_.compile_oracle(truth, c->id(), transit))) {
    throw std::logic_error("LegitimacyMonitor paranoid divergence: "
                           "compile != compile_oracle for controller " +
                           std::to_string(c->id()));
  }
  std::map<NodeId, proto::RuleListPtr> out;
  if (c->data_flows().empty()) {
    out = expected->per_switch;
  } else {
    std::map<NodeId, proto::RuleList> building;
    for (const auto& [sid, list] : expected->per_switch) building[sid] = *list;
    for (const auto& spec : c->data_flows()) {
      flows::DataFlow df = compiler_.compile_data_flow(
          truth, c->id(), spec.host_a, spec.attach_a, spec.host_b,
          spec.attach_b, transit);
      for (const auto& [sid, list] : df.per_switch) {
        auto& dst = building[sid];
        dst.insert(dst.end(), list->begin(), list->end());
      }
    }
    for (auto& [sid, list] : building) {
      std::sort(list.begin(), list.end(), flows::rule_order);
      out[sid] = std::make_shared<const proto::RuleList>(std::move(list));
    }
  }
  rc.truth_fingerprint = fp;
  rc.data_flow_revision = c->data_flow_revision();
  rc.per_switch = std::move(out);
  return rc.per_switch;
}

LegitimacyMonitor::Status LegitimacyMonitor::check_rules(
    const flows::TopoView& truth, bool fresh) {
  std::map<NodeId, bool> transit;
  for (const auto* c : controllers_) {
    if (c->alive()) transit[c->id()] = false;
  }
  for (const auto* s : switches_) {
    if (s->alive()) transit[s->id()] = true;
  }

  std::vector<NodeId> live_ids;
  for (Controller* c : live_controllers()) live_ids.push_back(c->id());
  std::sort(live_ids.begin(), live_ids.end());
  const std::uint64_t live_sig = live_signature();

  // Rule owners must be exactly the live controllers, at every live switch.
  for (auto* s : live_switches()) {
    if (!fresh) {
      const auto memo = owners_ok_.find(s->id());
      if (memo != owners_ok_.end() &&
          memo->second == std::make_pair(s->rule_table().epoch(), live_sig))
        continue;
    }
    std::vector<NodeId> owners = s->rule_table().owners();
    std::sort(owners.begin(), owners.end());
    if (owners != live_ids) {
      return {false, "switch " + std::to_string(s->id()) +
                         " rule owners != live controllers"};
    }
    if (!fresh) owners_ok_[s->id()] = {s->rule_table().epoch(), live_sig};
  }

  for (Controller* c : live_controllers()) {
    const auto& per_switch = reference_rules(c, truth, transit, fresh);
    for (auto* s : live_switches()) {
      const proto::RuleListPtr actual = s->rule_table().newest_rules_of(c->id());
      auto want_it = per_switch.find(s->id());
      const proto::RuleListPtr want =
          want_it == per_switch.end() ? nullptr : want_it->second;
      if (actual == nullptr || want == nullptr) {
        if ((actual == nullptr || actual->empty()) &&
            (want == nullptr || want->empty()))
          continue;
        return {false, "switch " + std::to_string(s->id()) + " missing rules of " +
                           std::to_string(c->id())};
      }
      const auto key = std::make_pair(s->id(), c->id());
      if (!fresh) {
        const auto memo = verified_.find(key);
        if (memo != verified_.end() && memo->second.first == actual &&
            memo->second.second == want)
          continue;
      }
      ++stats_.rule_compares;
      if (*actual != *want) {
        return {false, "switch " + std::to_string(s->id()) +
                           " stale rules of " + std::to_string(c->id())};
      }
      if (!fresh) verified_[key] = {actual, want};
    }
  }
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_walks(
    const flows::TopoView& truth, bool fresh) {
  std::uint64_t we = 0;
  if (!fresh) {
    we = walk_epoch();
    if (walk_ok_valid_ && walk_ok_epoch_ == we) return {true, ""};
  }
  ++stats_.walk_sweeps;

  const switchd::RuleForwarding forwarding(sim_.network(), switches_);
  const int ttl = 4 * static_cast<int>(truth.node_count()) + 8;

  for (Controller* c : live_controllers()) {
    const auto flows_ptr = c->current_flows();
    if (flows_ptr == nullptr) {
      return {false, "controller " + std::to_string(c->id()) + " has no flows"};
    }
    for (const auto& [node, _] : truth.adj()) {
      if (node == c->id()) continue;
      // Forward walk c -> node.
      std::vector<NodeId> first;
      if (sim_.network().link_operational(c->id(), node)) {
        first = {node};
      } else if (auto it = flows_ptr->first_hops.find(node);
                 it != flows_ptr->first_hops.end()) {
        first = it->second;
      }
      auto fwd = forwarding.walk(c->id(), node, first, ttl);
      if (!fwd.delivered) {
        return {false, "no path " + std::to_string(c->id()) + " -> " +
                           std::to_string(node)};
      }
      // Reverse walk node -> c.
      std::vector<NodeId> rfirst;
      if (sim_.network().link_operational(node, c->id())) {
        rfirst = {c->id()};
      } else if (forwarding.forwards(node)) {
        if (auto nh = forwarding.next_hop(node, node, c->id())) rfirst = {*nh};
      } else {
        // Another controller: use its own compiled first hops.
        for (Controller* o : live_controllers()) {
          if (o->id() != node) continue;
          const auto of = o->current_flows();
          if (of != nullptr) {
            if (auto it = of->first_hops.find(c->id());
                it != of->first_hops.end())
              rfirst = it->second;
          }
        }
      }
      auto rev = forwarding.walk(node, c->id(), rfirst, ttl);
      if (!rev.delivered) {
        return {false, "no path " + std::to_string(node) + " -> " +
                           std::to_string(c->id())};
      }
    }
  }
  if (!fresh) {
    walk_ok_valid_ = true;
    walk_ok_epoch_ = we;
  }
  return {true, ""};
}

}  // namespace ren::core
