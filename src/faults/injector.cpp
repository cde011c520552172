#include "faults/injector.hpp"

#include <algorithm>

namespace ren::faults {

namespace {

std::vector<NodeId> live_control_ids(const ControlPlane& cp) {
  std::vector<NodeId> ids;
  for (const auto* c : cp.controllers) {
    if (c->alive()) ids.push_back(c->id());
  }
  for (const auto* s : cp.switches) {
    if (s->alive()) ids.push_back(s->id());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

flows::TopoView control_topology(const ControlPlane& cp) {
  return flows::live_topology(*cp.sim, live_control_ids(cp));
}

void kill_node(ControlPlane& cp, NodeId id) {
  auto& downed = cp.kill_downed_links[id];
  for (const auto& e : cp.sim->network().adjacency(id)) {
    const net::LinkState prior = cp.sim->network().link(e.link).state();
    if (prior != net::LinkState::PermanentDown)
      downed.emplace_back(e.link, prior);
  }
  cp.sim->kill_node(id);
  cp.killed_nodes.push_back(id);
}

bool restart_node(ControlPlane& cp, NodeId id) {
  if (cp.sim->node(id).alive()) return false;
  if (const auto it = cp.kill_downed_links.find(id);
      it != cp.kill_downed_links.end()) {
    for (const auto& [li, prior] : it->second) {
      net::Link& l = cp.sim->network().link(li);
      if (l.state() == net::LinkState::PermanentDown) l.set_state(prior);
    }
    cp.kill_downed_links.erase(it);
  }
  cp.sim->revive_node(id);
  cp.killed_nodes.erase(
      std::remove(cp.killed_nodes.begin(), cp.killed_nodes.end(), id),
      cp.killed_nodes.end());
  return true;
}

std::vector<NodeId> restart_all_nodes(ControlPlane& cp) {
  std::vector<NodeId> revived;
  // killed_nodes shrinks as restart_node succeeds; iterate over a copy.
  const std::vector<NodeId> killed = cp.killed_nodes;
  for (NodeId id : killed) {
    if (restart_node(cp, id)) revived.push_back(id);
  }
  return revived;
}

bool fail_link(ControlPlane& cp, NodeId a, NodeId b) {
  net::Link* l = cp.sim->network().find_link(a, b);
  if (l == nullptr || l->state() == net::LinkState::PermanentDown) return false;
  l->set_state(net::LinkState::PermanentDown);
  cp.failed_links.push_back(l->index());
  return true;
}

bool restore_link(ControlPlane& cp, NodeId a, NodeId b) {
  net::Link* l = cp.sim->network().find_link(a, b);
  if (l == nullptr || l->state() != net::LinkState::PermanentDown) return false;
  l->set_state(net::LinkState::Up);
  cp.failed_links.erase(
      std::remove(cp.failed_links.begin(), cp.failed_links.end(), l->index()),
      cp.failed_links.end());
  return true;
}

std::size_t restore_all_links(ControlPlane& cp) {
  std::size_t restored = 0;
  for (int li : cp.failed_links) {
    net::Link& l = cp.sim->network().link(li);
    if (l.state() == net::LinkState::PermanentDown) {
      l.set_state(net::LinkState::Up);
      ++restored;
    }
  }
  cp.failed_links.clear();
  return restored;
}

NodeId kill_random_controller(ControlPlane& cp, Rng& rng) {
  std::vector<core::Controller*> live;
  for (auto* c : cp.controllers) {
    if (c->alive()) live.push_back(c);
  }
  if (live.size() <= 1) return kNoNode;  // keep at least one controller
  core::Controller* victim = live[rng.next_below(live.size())];
  kill_node(cp, victim->id());
  return victim->id();
}

std::vector<NodeId> kill_random_controllers(ControlPlane& cp, Rng& rng,
                                            int count) {
  std::vector<NodeId> killed;
  for (int i = 0; i < count; ++i) {
    const NodeId victim = kill_random_controller(cp, rng);
    if (victim == kNoNode) break;
    killed.push_back(victim);
  }
  return killed;
}

NodeId kill_random_switch(ControlPlane& cp, Rng& rng) {
  std::vector<switchd::AbstractSwitch*> candidates;
  for (auto* s : cp.switches) {
    if (!s->alive()) continue;
    if (std::find(cp.protected_switches.begin(), cp.protected_switches.end(),
                  s->id()) != cp.protected_switches.end())
      continue;
    candidates.push_back(s);
  }
  rng.shuffle(candidates);
  // The live topology does not change while probing candidates: flatten it
  // once and ask each candidate on the snapshot.
  flows::ConnectivityProbe probe(control_topology(cp));
  for (auto* s : candidates) {
    if (probe.connected_without_node(s->id())) {
      kill_node(cp, s->id());
      return s->id();
    }
  }
  return kNoNode;
}

std::vector<NodeId> kill_random_switches(ControlPlane& cp, Rng& rng,
                                         int count) {
  std::vector<NodeId> killed;
  for (int i = 0; i < count; ++i) {
    const NodeId victim = kill_random_switch(cp, rng);
    if (victim == kNoNode) break;
    killed.push_back(victim);
  }
  return killed;
}

std::pair<NodeId, NodeId> fail_random_link(ControlPlane& cp, Rng& rng,
                                           bool keep_connected) {
  const auto ids = live_control_ids(cp);
  std::vector<std::pair<NodeId, NodeId>> candidates;
  const net::Network& net = cp.sim->network();
  for (NodeId n : ids) {
    for (const auto& e : net.adjacency(n)) {
      if (e.neighbor < n) continue;  // dedupe
      if (!net.link(e.link).operational()) continue;
      if (!std::binary_search(ids.begin(), ids.end(), e.neighbor)) continue;
      candidates.emplace_back(n, e.neighbor);
    }
  }
  rng.shuffle(candidates);
  // One live-topology snapshot for the whole probe loop.
  flows::ConnectivityProbe probe(flows::live_topology(*cp.sim, ids));
  for (const auto& [a, b] : candidates) {
    if (keep_connected && !probe.connected_without_edge(a, b)) continue;
    fail_link(cp, a, b);
    return {a, b};
  }
  return {kNoNode, kNoNode};
}

std::vector<std::pair<NodeId, NodeId>> fail_random_links(
    ControlPlane& cp, Rng& rng, int count, bool keep_connected) {
  std::vector<std::pair<NodeId, NodeId>> failed;
  for (int i = 0; i < count; ++i) {
    const auto link = fail_random_link(cp, rng, keep_connected);
    if (link.first == kNoNode) break;
    failed.push_back(link);
  }
  return failed;
}

void corrupt_all_state(ControlPlane& cp, Rng& rng) {
  const auto node_space =
      static_cast<NodeId>(cp.sim->node_count());
  for (auto* s : cp.switches) {
    if (s->alive()) s->corrupt_state(rng, node_space);
  }
  for (auto* c : cp.controllers) {
    if (c->alive()) c->corrupt_state(rng, node_space);
  }
}

}  // namespace ren::faults
