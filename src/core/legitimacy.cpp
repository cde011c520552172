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

LegitimacyMonitor::Live LegitimacyMonitor::live() const {
  Live out;
  for (Controller* c : controllers_) {
    if (!c->alive()) continue;
    out.controllers.push_back(c);
    out.controller_ids.push_back(c->id());
  }
  std::sort(out.controller_ids.begin(), out.controller_ids.end());
  for (auto* s : switches_) {
    if (s->alive()) out.switches.push_back(s);
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
    truth_ = flows::live_topology(sim_, live_ids());
    truth_epoch_ = topo;
    truth_valid_ = true;
    ++stats_.truth_rebuilds;
  }
  return truth_;
}

int LegitimacyMonitor::achievable_kappa() {
  const std::uint64_t topo = sim_.network().epoch();
  if (kappa_valid_ && kappa_epoch_ == topo) return achievable_kappa_;
  // The flat snapshot compacts node ids, which go sparse once nodes die.
  flows::FlatView flat;
  flat.assign(true_view());
  achievable_kappa_ = std::max(0, flat.edge_connectivity() - 1);
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
  return evaluate(flows::live_topology(sim_, live_ids()),
                  /*fresh=*/true);
}

LegitimacyMonitor::Status LegitimacyMonitor::evaluate(
    const flows::TopoView& truth, bool fresh) {
  const Live snapshot = live();
  if (snapshot.controllers.empty()) return {false, "no live controller"};

  if (Status s = check_views(truth, snapshot); !s.legitimate) return s;
  if (Status s = check_managers(snapshot); !s.legitimate) return s;
  if (Status s = check_rules(truth, snapshot, fresh); !s.legitimate) return s;
  if (Status s = check_walks(truth, snapshot); !s.legitimate) return s;
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_views(
    const flows::TopoView& truth, const Live& live) {
  // Definition 1 compares graphs: the truth knows every kind, while a
  // legitimate view may still hold a switch whose kind it has not learnt.
  for (Controller* c : live.controllers) {
    if (!same_graph(c->fused_view(), truth)) {
      return {false, "controller " + std::to_string(c->id()) + " view != Gc"};
    }
  }
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_managers(const Live& live) {
  // Managers and rule owners must both be exactly the live controllers, at
  // every live switch.
  std::vector<NodeId> got;
  for (auto* s : live.switches) {
    got = s->managers();
    std::sort(got.begin(), got.end());
    if (got != live.controller_ids) {
      return {false, "switch " + std::to_string(s->id()) +
                         " managers != live controllers"};
    }
    got = s->rule_table().owners();
    std::sort(got.begin(), got.end());
    if (got != live.controller_ids) {
      return {false, "switch " + std::to_string(s->id()) +
                         " rule owners != live controllers"};
    }
  }
  return {true, ""};
}

const std::map<NodeId, proto::RuleListPtr>& LegitimacyMonitor::reference_rules(
    Controller* c, const flows::TopoView& truth, bool fresh) {
  const std::uint64_t fp = truth.fingerprint();
  ReferenceCache& rc = reference_[c->id()];
  if (!fresh) {
    if (rc.truth_fingerprint == fp &&
        rc.data_flow_revision == c->data_flow_revision() &&
        !rc.per_switch.empty()) {
      return rc.per_switch;
    }
    ++stats_.reference_compiles;
  }
  // Reference compilation, merged with the controller's data flows by the
  // same merge_data_flows the controller installs from.
  const auto expected = compiler_.compile_cached(truth, c->id());
  if (config_.paranoid &&
      !flows::identical_flows(*expected,
                              *compiler_.compile_oracle(truth, c->id()))) {
    throw std::logic_error("LegitimacyMonitor paranoid divergence: "
                           "compile != compile_oracle for controller " +
                           std::to_string(c->id()));
  }
  rc.per_switch = c->data_flows().empty()
                      ? expected->per_switch
                      : merge_data_flows(expected->per_switch,
                                         c->data_flows(), compiler_, truth,
                                         c->id());
  rc.truth_fingerprint = fp;
  rc.data_flow_revision = c->data_flow_revision();
  return rc.per_switch;
}

LegitimacyMonitor::Status LegitimacyMonitor::check_rules(
    const flows::TopoView& truth, const Live& live, bool fresh) {
  for (Controller* c : live.controllers) {
    const auto& per_switch = reference_rules(c, truth, fresh);
    for (auto* s : live.switches) {
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
      if (*actual != *want) {
        return {false, "switch " + std::to_string(s->id()) +
                           " stale rules of " + std::to_string(c->id())};
      }
    }
  }
  return {true, ""};
}

LegitimacyMonitor::Status LegitimacyMonitor::check_walks(
    const flows::TopoView& truth, const Live& live) {
  const switchd::RuleForwarding forwarding(sim_.network(), switches_);
  const int ttl = 4 * static_cast<int>(truth.node_count()) + 8;

  for (Controller* c : live.controllers) {
    const auto flows_ptr = c->current_flows();
    if (flows_ptr == nullptr) {
      return {false, "controller " + std::to_string(c->id()) + " has no flows"};
    }
    for (const auto& [node, _] : truth.nodes()) {
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
        for (Controller* o : live.controllers) {
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
  return {true, ""};
}

}  // namespace ren::core
