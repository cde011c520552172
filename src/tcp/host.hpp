// A data-plane host (paper Section 2): attached to one switch through a
// data port, outside the control plane — hosts never answer discovery
// probes, so the controllers' topology views exclude them by construction.
#pragma once

#include <memory>

#include "net/node.hpp"
#include "net/simulator.hpp"
#include "tcp/reno.hpp"
#include "util/types.hpp"

namespace ren::tcp {

class Host : public net::Node {
 public:
  Host(NodeId id, NodeId attach_switch);

  void start() override {}
  void on_packet(NodeId from_neighbor, const net::Packet& packet) override;

  [[nodiscard]] NodeId attach() const { return attach_; }

  /// Configure this host as the TCP sender toward `peer`.
  RenoSender& make_sender(NodeId peer, FlowStats* stats);
  /// Configure this host as the TCP receiver (acks flow back to `peer`).
  RenoReceiver& make_receiver(NodeId peer, FlowStats* stats);

  [[nodiscard]] RenoSender* sender() { return sender_.get(); }
  [[nodiscard]] RenoReceiver* receiver() { return receiver_.get(); }

 private:
  void transmit(NodeId peer, proto::Segment seg);

  NodeId attach_;
  std::unique_ptr<RenoSender> sender_;
  std::unique_ptr<RenoReceiver> receiver_;
};

}  // namespace ren::tcp
