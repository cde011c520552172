#include "switchd/abstract_switch.hpp"

#include <algorithm>

namespace ren::switchd {

AbstractSwitch::AbstractSwitch(NodeId id, Config config)
    : transport::InBandNode(id, NodeKind::Switch, config.tick_interval,
                            config.detect_interval, config.theta),
      config_(config),
      rules_(RuleTable::Config{config.max_rules}) {}

void AbstractSwitch::on_packet(NodeId from_neighbor, const net::Packet& packet) {
  if (packet.dst != id()) {
    forward_packet(packet);
    return;
  }
  InBandNode::on_packet(from_neighbor, packet);
}

NodeId AbstractSwitch::rule_hop(const net::Packet& packet) {
  for (const Candidate& c : rules_.lookup(packet.src, packet.dst)) {
    if (sim_->network().link_operational(id(), c.fwd)) return c.fwd;
  }
  return kNoNode;
}

void AbstractSwitch::forward_packet(const net::Packet& packet) {
  if (packet.ttl <= 0) {
    ++sim_->counters().drops_ttl;
    return;
  }
  NodeId hop = rule_hop(packet);
  // Query-by-neighbor: hand packets addressed to a direct neighbor over the
  // port facing it even without an installed rule (Section 2.1.1).
  if (hop == kNoNode && sim_->network().link_operational(id(), packet.dst)) {
    hop = packet.dst;
  }
  if (hop == kNoNode) {
    ++sim_->counters().drops_no_rule;
    return;
  }
  net::Packet out = packet;
  out.ttl -= 1;
  sim_->send(id(), hop, std::move(out));
}

void AbstractSwitch::on_message(NodeId from, const proto::MessagePtr& message) {
  const auto* batch = std::get_if<proto::CommandBatch>(&*message);
  if (batch == nullptr) return;
  for (const proto::Command& cmd : batch->commands) {
    std::visit(
        [&](const auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, proto::NewRoundCmd>) {
            rules_.new_round(from, c.tag, c.retention);
          } else if constexpr (std::is_same_v<T, proto::DelMngrCmd>) {
            del_manager(c.k);
          } else if constexpr (std::is_same_v<T, proto::AddMngrCmd>) {
            add_manager(c.k);
          } else if constexpr (std::is_same_v<T, proto::DelAllRulesCmd>) {
            rules_.del_all(c.k);
          } else if constexpr (std::is_same_v<T, proto::UpdateRuleCmd>) {
            rules_.update_rules(from, c.rules, c.tag);
          } else if constexpr (std::is_same_v<T, proto::QueryCmd>) {
            proto::QueryReply reply;
            reply.managers = managers();
            reply.rule_owners = rules_.owners_summary();
            reply.rules_wire_bytes = rules_.rules_wire_bytes();
            reply.tag_for_querier = rules_.meta_tag(from).value_or(c.tag);
            answer_query(from, std::move(reply));
          }
        },
        cmd);
  }
}

void AbstractSwitch::add_manager(NodeId k) {
  auto it = managers_.find(k);
  if (it != managers_.end()) {
    it->second = ++manager_touch_;  // LRU refresh only, set unchanged
    return;
  }
  if (managers_.size() >= config_.max_managers) {
    // Evict the least recently added/accessed manager (Section 2.1.1).
    auto victim = managers_.begin();
    for (auto m = managers_.begin(); m != managers_.end(); ++m) {
      if (m->second < victim->second) victim = m;
    }
    managers_.erase(victim);
    ++manager_evictions_;
  }
  managers_[k] = ++manager_touch_;
  ++manager_epoch_;
}

void AbstractSwitch::del_manager(NodeId k) {
  if (managers_.erase(k) != 0) ++manager_epoch_;
}

std::vector<NodeId> AbstractSwitch::managers() const {
  std::vector<NodeId> out;
  out.reserve(managers_.size());
  for (const auto& [k, _] : managers_) out.push_back(k);
  return out;
}

void AbstractSwitch::corrupt_state(Rng& rng, NodeId node_space) {
  rules_.corrupt(rng, node_space);
  // Scramble the manager set.
  for (auto it = managers_.begin(); it != managers_.end();) {
    it = rng.chance(0.4) ? managers_.erase(it) : std::next(it);
  }
  if (rng.chance(0.5)) {
    managers_[static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(node_space)))] = ++manager_touch_;
  }
  detector_.corrupt(rng);
  endpoint_.corrupt(rng);
  if (rng.chance(0.5)) last_port_.clear();
  ++manager_epoch_;  // corruption may have touched anything
}

// --- RuleForwarding ---------------------------------------------------------

RuleForwarding::RuleForwarding(const net::Network& net,
                               const std::vector<AbstractSwitch*>& switches)
    : net_(net) {
  for (AbstractSwitch* s : switches) {
    if (!s->alive()) continue;
    const auto idx = static_cast<std::size_t>(s->id());
    if (idx >= live_.size()) live_.resize(idx + 1, nullptr);
    live_[idx] = s;
  }
}

AbstractSwitch* RuleForwarding::live_switch(NodeId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < live_.size()
             ? live_[static_cast<std::size_t>(id)]
             : nullptr;
}

std::optional<NodeId> RuleForwarding::next_hop(NodeId at, NodeId src,
                                               NodeId dst) const {
  AbstractSwitch* s = live_switch(at);
  if (s == nullptr) return std::nullopt;
  for (const auto& cand : s->rule_table().candidates(src, dst)) {
    if (net_.link_operational(at, cand.fwd)) return cand.fwd;
  }
  if (net_.link_operational(at, dst)) return dst;  // adjacency
  return std::nullopt;
}

flows::WalkResult RuleForwarding::walk(NodeId src, NodeId dst,
                                       const std::vector<NodeId>& first_hops,
                                       int ttl) const {
  return flows::rule_walk(
      src, dst, first_hops,
      [this](NodeId at, NodeId s, NodeId d) { return next_hop(at, s, d); },
      [this](NodeId a, NodeId b) { return net_.link_operational(a, b); },
      ttl);
}

}  // namespace ren::switchd
