#include "tcp/host.hpp"

namespace ren::tcp {

Host::Host(NodeId id, NodeId attach_switch)
    : net::Node(id, NodeKind::Host), attach_(attach_switch) {}

void Host::transmit(NodeId peer, proto::Segment seg) {
  sim_->send(id(), attach_,
             net::make_packet(id(), peer, proto::Payload{std::move(seg)}));
}

RenoSender& Host::make_sender(NodeId peer, FlowStats* stats) {
  sender_ = std::make_unique<RenoSender>(
      *sim_, id(), stats,
      [this, peer](proto::Segment s) { transmit(peer, std::move(s)); });
  return *sender_;
}

RenoReceiver& Host::make_receiver(NodeId peer, FlowStats* stats) {
  receiver_ = std::make_unique<RenoReceiver>(
      *sim_, stats,
      [this, peer](proto::Segment s) { transmit(peer, std::move(s)); });
  return *receiver_;
}

void Host::on_packet(NodeId /*from_neighbor*/, const net::Packet& packet) {
  if (packet.dst != id()) return;  // hosts never relay
  const auto* seg = std::get_if<proto::Segment>(&*packet.payload);
  if (seg == nullptr) return;  // hosts ignore control traffic and probes
  if (seg->is_ack) {
    if (sender_) sender_->on_ack(*seg);
  } else {
    if (receiver_) receiver_->on_segment(*seg);
  }
}

}  // namespace ren::tcp
