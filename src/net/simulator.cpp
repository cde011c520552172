#include "net/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/mutate.hpp"
#include "util/log.hpp"

namespace ren::net {

// --- Counters ---------------------------------------------------------------

std::uint64_t Counters::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(packets_sent);
  mix(packets_delivered);
  mix(drops_link_down);
  mix(drops_queue);
  mix(drops_dead_node);
  mix(drops_ttl);
  mix(drops_no_rule);
  mix(drops_ambiguous_rule);
  mix(packets_corrupted);
  mix(control_bytes_sent);
  mix(max_control_message_bytes);
  for (const auto* v :
       {&ctrl_messages_sent, &ctrl_commands_sent, &iterations}) {
    mix(v->size());
    for (std::uint64_t x : *v) mix(x);
  }
  return h;
}

// --- Construction -----------------------------------------------------------

Simulator::Simulator(std::uint64_t seed) : rng_(seed), seed_(seed) {}

NodeId Simulator::add_node(std::unique_ptr<Node> node) {
  const NodeId id = node->id();
  if (static_cast<std::size_t>(id) != nodes_.size())
    throw std::invalid_argument("add_node: node ids must be dense 0..N-1");
  node->sim_ = this;
  nodes_.push_back(std::move(node));
  network_.ensure_nodes(nodes_.size());
  counters_.ensure_nodes(nodes_.size());
  node_rngs_.emplace_back(
      Rng::stream_seed(seed_, static_cast<std::uint64_t>(id)));
  node_seq_.push_back(0);
  return id;
}

std::vector<NodeId> Simulator::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n->kind() == kind) out.push_back(n->id());
  }
  return out;
}

int Simulator::add_link(NodeId a, NodeId b, const LinkParams& params) {
  return network_.add_link(a, b, params);
}

// --- Scheduling -------------------------------------------------------------

void Simulator::schedule_at(Time at, EventQueue::Action action) {
  if (current_node_ != kNoNode) {
    // Node context: the event stays on the executing node's lane.
    queue_.schedule_at(at, std::move(action), lane_of(current_node_),
                       node_seq_[static_cast<std::size_t>(current_node_)]++);
  } else {
    queue_.schedule_at(at, std::move(action));  // global lane
  }
}

void Simulator::schedule_for(NodeId node_id, Time delay,
                             std::function<void()> action) {
  // The (node, incarnation) guard rides in the event itself; execute()
  // checks it, so a node timer costs no second closure.
  queue_.schedule_at(now() + delay, std::move(action), lane_of(node_id),
                     node_seq_[static_cast<std::size_t>(node_id)]++, node_id,
                     node(node_id).incarnation());
}

// --- Execution --------------------------------------------------------------

void Simulator::execute(EventQueue::Event& ev) {
  if (ev.guard != kNoNode) {
    const Node& n = node(ev.guard);
    if (!n.alive() || n.incarnation() != ev.incarnation) return;
  }
  const NodeId saved = current_node_;
  if (ev.lane == EventQueue::kGlobalLane) {
    current_node_ = kNoNode;
  } else {
    current_node_ = ev.is_packet() ? ev.to : static_cast<NodeId>(ev.lane - 1);
  }
  if (ev.action) {
    ev.action();
  } else {
    deliver_packet(ev.from, ev.to, ev.link, ev.packet);
  }
  current_node_ = saved;
}

void Simulator::run_until(Time t) {
  // Events parked at kTimeNever never run, whatever the target.
  const Time limit = std::min(t, kTimeNever - 1);
  EventQueue::Event ev;
  while (queue_.pop_until(limit, ev)) execute(ev);
}

// --- Failures ---------------------------------------------------------------

void Simulator::kill_node(NodeId id) {
  if (current_node_ != kNoNode)
    throw std::logic_error("kill_node: not from node context");
  Node& n = node(id);
  n.fail_stop();
  for (const Network::Edge& e : network_.adjacency(id)) {
    network_.link(e.link).set_state(LinkState::PermanentDown);
  }
  network_.bump_epoch();  // the alive set is part of the topology epoch
  REN_LOG(Info, "t=%.3fs node %d fail-stopped", to_seconds(now()), id);
}

void Simulator::revive_node(NodeId id) {
  if (current_node_ != kNoNode)
    throw std::logic_error("revive_node: not from node context");
  Node& n = node(id);
  if (n.alive()) return;
  n.revive();
  n.start();  // restart the timer chains under the new incarnation
  network_.bump_epoch();
  REN_LOG(Info, "t=%.3fs node %d revived", to_seconds(now()), id);
}

void Simulator::set_link_state(NodeId a, NodeId b, LinkState state) {
  if (current_node_ != kNoNode)
    throw std::logic_error("set_link_state: not from node context");
  Link* l = network_.find_link(a, b);
  if (l == nullptr) throw std::invalid_argument("set_link_state: no such link");
  l->set_state(state);
}

// --- Services ---------------------------------------------------------------

void Simulator::send(NodeId from, NodeId to, Packet packet) {
  Counters& c = counters_;
  ++c.packets_sent;
  Link* link = network_.find_link(from, to);
  if (link == nullptr ||
      (!link->passes_traffic() && link->state() != LinkState::Blackhole)) {
    ++c.drops_link_down;
    return;
  }
  // All per-packet randomness comes from the *sender's* stream, so the draw
  // sequence follows the node's own deterministic trajectory. A blackholing (failing-but-not-yet-detected) port flaps: most
  // packets are lost, a trickle still passes — that trickle is what produces
  // the duplicate-ack and out-of-order signatures of Figs. 18-20.
  Rng& r = node_rng(from);
  if (link->state() == LinkState::Blackhole && r.chance(0.9)) {
    ++c.drops_link_down;
    return;
  }
  const Link::TxPlan plan =
      link->plan_transmission(from, packet.bytes, now(), r);
  if (plan.dropped) {
    ++c.drops_queue;
    return;
  }
  // In-band channel corruption: replace the payload with a field-permuted
  // deep copy (proto/mutate.hpp). Gated on the probability so zero-knob
  // runs draw nothing extra and stay byte-identical; the draw comes from
  // the sender's stream like every other per-packet fault.
  const double pc = link->params().faults.corrupt;
  if (pc > 0 && packet.payload != nullptr && r.chance(pc)) {
    packet.payload = std::make_shared<const proto::Payload>(
        proto::corrupt_payload(*packet.payload, r,
                               static_cast<NodeId>(node_count())));
    ++c.packets_corrupted;
  }

  const int link_index = link->index();
  const auto emit = [&](Time at, Packet&& p) {
    queue_.schedule_packet(at, from, to, link_index, std::move(p),
                           lane_of(from),
                           node_seq_[static_cast<std::size_t>(from)]++);
  };
  if (plan.duplicated) {
    // Keep the original event order (delivery enqueued before the
    // duplicate) so same-time copies tie-break by lane sequence.
    Packet copy = packet;
    emit(plan.deliver_at, std::move(copy));
    emit(plan.duplicate_at, std::move(packet));
  } else {
    emit(plan.deliver_at, std::move(packet));
  }
}

void Simulator::deliver_packet(NodeId from, NodeId to, int link,
                               Packet& packet) {
  Counters& c = counters_;
  // In-flight packets on a permanently removed link are lost.
  if (network_.link(link).state() == LinkState::PermanentDown) {
    ++c.drops_link_down;
    return;
  }
  Node& receiver = node(to);
  if (!receiver.alive()) {
    ++c.drops_dead_node;
    return;
  }
  ++c.packets_delivered;
  receiver.on_packet(from, packet);
}

}  // namespace ren::net
