#include "switchd/abstract_switch.hpp"

#include <algorithm>

#include "faults/adversary.hpp"
#include "util/log.hpp"

namespace ren::switchd {

AbstractSwitch::AbstractSwitch(NodeId id, Config config)
    : net::Node(id, NodeKind::Switch),
      config_(config),
      rules_(RuleTable::Config{config.max_rules}),
      detector_(id, detect::ThetaDetector::Config{config.theta}),
      endpoint_(
          id, transport::Config{},
          transport::Endpoint::Hooks{
              [this](NodeId peer, proto::PayloadPtr f, std::uint32_t bytes) {
                route_frame(peer, std::move(f), bytes);
              },
              [this](NodeId peer, proto::MessagePtr m) {
                apply_batch(peer, m);  // replies are never consumed here
              },
              [this](NodeId) {
                ++sim_->counters().ctrl_messages_sent[static_cast<std::size_t>(
                    this->id())];
              }}) {}

void AbstractSwitch::start() {
  endpoint_.set_max_sessions(sim_->node_count());
  // Stagger timers across nodes so synchronized bursts do not mask queueing.
  // Drawn from the node's own stream: the offsets depend only on (seed, id),
  // never on the order nodes happen to start in.
  const Time tick_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(config_.tick_interval)));
  const Time det_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(config_.detect_interval)));
  sim_->schedule_for(id(), tick_off, [this] { control_tick(); });
  sim_->schedule_for(id(), det_off, [this] { detect_tick(); });
}

void AbstractSwitch::control_tick() {
  endpoint_.tick();
  sim_->schedule_for(id(), config_.tick_interval, [this] { control_tick(); });
}

void AbstractSwitch::detect_tick() {
  // Candidates are the attached ports; liveness is learned from replies only.
  std::vector<NodeId> ports;
  for (const auto& e : sim_->network().adjacency(id())) {
    ports.push_back(e.neighbor);
  }
  detector_.set_candidates(ports);
  detector_.tick([this](NodeId nbr, proto::Probe p) {
    sim_->send(id(), nbr, net::make_packet(id(), nbr, proto::Payload{p}));
  });
  sim_->schedule_for(id(), config_.detect_interval, [this] { detect_tick(); });
}

void AbstractSwitch::on_packet(NodeId from_neighbor, const net::Packet& packet) {
  if (packet.dst != id()) {
    forward_packet(packet);
    return;
  }
  // Control module: dispatch by payload kind.
  if (const auto* frame = std::get_if<proto::Frame>(&*packet.payload)) {
    last_port_[packet.src] = from_neighbor;
    endpoint_.on_frame(packet.src, *frame);
  } else if (const auto* probe = std::get_if<proto::Probe>(&*packet.payload)) {
    sim_->send(id(), from_neighbor,
               net::make_packet(id(), from_neighbor,
                                proto::Payload{proto::ProbeReply{probe->round}}));
  } else if (std::get_if<proto::ProbeReply>(&*packet.payload) != nullptr) {
    detector_.on_probe_reply(from_neighbor);
  }
  // Data segments addressed to a switch are silently ignored.
}

void AbstractSwitch::forward_packet(const net::Packet& packet) {
  if (packet.ttl <= 0) {
    ++sim_->counters().drops_ttl;
    return;
  }
  net::Packet out = packet;
  out.ttl -= 1;
  for (const Candidate& c : rules_.lookup(packet.src, packet.dst)) {
    if (sim_->network().link_operational(id(), c.fwd)) {
      sim_->send(id(), c.fwd, out);
      return;
    }
  }
  // Query-by-neighbor: hand packets addressed to a direct neighbor over the
  // port facing it even without an installed rule (Section 2.1.1).
  if (sim_->network().link_operational(id(), packet.dst)) {
    sim_->send(id(), packet.dst, out);
    return;
  }
  ++sim_->counters().drops_no_rule;
}

void AbstractSwitch::route_frame(NodeId peer, proto::PayloadPtr frame,
                                 std::uint32_t bytes) {
  // Byzantine interposition on the outbound frame path (see Controller's
  // route_frame): corrupt the frame and/or replay a remembered one.
  if (adversary_ != nullptr) {
    if (proto::PayloadPtr forged = adversary_->corrupt_frame(*frame)) {
      frame = std::move(forged);
    }
    if (auto replay = adversary_->note_and_babble(peer, frame, bytes)) {
      emit_frame(replay->peer, std::move(replay->frame), replay->bytes);
    }
  }
  emit_frame(peer, std::move(frame), bytes);
}

void AbstractSwitch::emit_frame(NodeId peer, proto::PayloadPtr frame,
                                std::uint32_t bytes) {
  net::Packet pkt = net::make_packet(id(), peer, std::move(frame), bytes);
  auto& counters = sim_->counters();
  counters.control_bytes_sent += pkt.bytes;
  counters.max_control_message_bytes =
      std::max<std::uint64_t>(counters.max_control_message_bytes, pkt.bytes);

  // 1. Direct hand-over when the peer is adjacent.
  if (sim_->network().link_operational(id(), peer)) {
    sim_->send(id(), peer, pkt);
    return;
  }
  // 2. Installed reverse rules (src=*, dest=peer).
  for (const Candidate& c : rules_.lookup(id(), peer)) {
    if (sim_->network().link_operational(id(), c.fwd)) {
      sim_->send(id(), c.fwd, pkt);
      return;
    }
  }
  // 3. Fall back to the port the peer was last heard on (reverse-path hint;
  //    covers the bootstrap window before reverse rules are installed).
  auto it = last_port_.find(peer);
  if (it != last_port_.end() &&
      sim_->network().link_operational(id(), it->second)) {
    sim_->send(id(), it->second, pkt);
    return;
  }
  ++sim_->counters().drops_no_rule;
}

void AbstractSwitch::apply_batch(NodeId from, const proto::MessagePtr& message) {
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
            reply.id = id();
            reply.nc = detector_.live();
            reply.managers = managers();
            reply.rule_owners = rules_.owners_summary();
            reply.rules_wire_bytes = rules_.rules_wire_bytes();
            const auto meta = rules_.meta_tag(from);
            reply.tag_for_querier = meta.value_or(c.tag);
            reply.from_controller = false;
            // Byzantine interposition: a compromised switch lies about its
            // configuration or equivocates its round tag per querier.
            if (adversary_ != nullptr) adversary_->tamper_reply(from, reply);
            endpoint_.submit(from, proto::Message{std::move(reply)});
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
