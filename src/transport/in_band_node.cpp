#include "transport/in_band_node.hpp"

#include <algorithm>
#include <vector>

#include "faults/adversary.hpp"

namespace ren::transport {

namespace {

/// Wire size of a probe and of a probe reply (neither carries a body).
const std::uint32_t kProbeBytes = static_cast<std::uint32_t>(
    proto::wire_size(proto::Payload{proto::Probe{}}));

}  // namespace

InBandNode::InBandNode(NodeId id, NodeKind kind, Time task_interval,
                       Time detect_interval, int theta)
    : net::Node(id, kind),
      detector_(id, detect::ThetaDetector::Config{theta}),
      endpoint_(
          id,
          Endpoint::Hooks{
              [this](NodeId peer, proto::PayloadPtr f, std::uint32_t bytes) {
                route_frame(peer, std::move(f), bytes);
              },
              [this](NodeId peer, proto::MessagePtr m) { on_message(peer, m); },
              [this](NodeId) {
                ++sim_->counters().ctrl_messages_sent[static_cast<std::size_t>(
                    this->id())];
              }}),
      task_interval_(task_interval),
      detect_interval_(detect_interval) {}

void InBandNode::start() {
  endpoint_.set_max_sessions(sim_->node_count());
  // Stagger timers across nodes so synchronized bursts do not mask queueing.
  // Drawn from the node's own stream: the offsets depend only on (seed, id),
  // never on the order nodes happen to start in.
  const Time task_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(task_interval_)));
  const Time det_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(detect_interval_)));
  sim_->schedule_for(id(), task_off, [this] { task_tick(); });
  sim_->schedule_for(id(), det_off, [this] { detect_tick(); });
}

void InBandNode::task_tick() {
  run_task();
  endpoint_.tick();  // retransmit unacknowledged frames
  sim_->schedule_for(id(), task_interval_, [this] { task_tick(); });
}

void InBandNode::detect_tick() {
  // Candidates are the attached ports; liveness is learned from replies only.
  ports_.clear();
  for (const auto& e : sim_->network().adjacency(id())) {
    ports_.push_back(e.neighbor);
  }
  detector_.set_candidates(ports_);
  // Every port gets the same probe this round: one shared immutable payload.
  proto::PayloadPtr probe;
  detector_.tick([this, &probe](NodeId nbr, proto::Probe p) {
    if (probe == nullptr) probe = std::make_shared<const proto::Payload>(p);
    sim_->send(id(), nbr, net::make_packet(id(), nbr, probe, kProbeBytes));
  });
  sim_->schedule_for(id(), detect_interval_, [this] { detect_tick(); });
}

void InBandNode::on_packet(NodeId from_neighbor, const net::Packet& packet) {
  if (packet.dst != id()) {
    ++sim_->counters().drops_no_rule;
    return;
  }
  if (const auto* frame = std::get_if<proto::Frame>(&*packet.payload)) {
    last_port_[packet.src] = from_neighbor;
    endpoint_.on_frame(packet.src, *frame);
  } else if (const auto* probe = std::get_if<proto::Probe>(&*packet.payload)) {
    // Neighbors probe on equal, staggered intervals, so their rounds arrive
    // in (nearly) non-decreasing order: one reply payload per round serves
    // every neighbor probing with that round.
    if (probe_reply_ == nullptr ||
        std::get<proto::ProbeReply>(*probe_reply_).round != probe->round) {
      probe_reply_ = std::make_shared<const proto::Payload>(
          proto::ProbeReply{probe->round});
    }
    sim_->send(id(), from_neighbor,
               net::make_packet(id(), from_neighbor, probe_reply_,
                                kProbeBytes));
  } else if (std::get_if<proto::ProbeReply>(&*packet.payload) != nullptr) {
    detector_.on_probe_reply(from_neighbor);
  }
}

void InBandNode::answer_query(NodeId querier, proto::QueryReply reply) {
  reply.id = id();
  reply.nc = detector_.live();
  reply.from_controller = kind() == NodeKind::Controller;
  if (adversary_ != nullptr) adversary_->tamper_reply(querier, reply);
  endpoint_.submit(querier, proto::Message{std::move(reply)});
}

void InBandNode::route_frame(NodeId peer, proto::PayloadPtr frame,
                             std::uint32_t bytes) {
  // Byzantine interposition on the outbound frame path: a corrupting
  // adversary field-permutes the frame (deep copy; the shared original is
  // untouched), a babbler remembers it and may replay an older one first.
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

void InBandNode::emit_frame(NodeId peer, proto::PayloadPtr frame,
                            std::uint32_t bytes) {
  net::Packet pkt = net::make_packet(id(), peer, std::move(frame), bytes);
  auto& counters = sim_->counters();
  counters.control_bytes_sent += bytes;
  counters.max_control_message_bytes =
      std::max<std::uint64_t>(counters.max_control_message_bytes, bytes);

  const net::Network& network = sim_->network();
  NodeId hop = peer;  // 1. adjacent peer: direct hand-over
  if (!network.link_operational(id(), hop)) {
    hop = rule_hop(pkt);  // 2. installed next hops (fast-failover order)
    if (hop == kNoNode) {
      // 3. The port the peer was last heard on (covers the bootstrap window
      //    before any route toward the peer is installed).
      auto it = last_port_.find(peer);
      if (it != last_port_.end() &&
          network.link_operational(id(), it->second)) {
        hop = it->second;
      }
    }
  }
  if (hop == kNoNode) {
    ++counters.drops_no_rule;
    return;
  }
  sim_->send(id(), hop, std::move(pkt));
}

}  // namespace ren::transport
