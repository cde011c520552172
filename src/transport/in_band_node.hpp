// One node of the in-band control plane (paper Section 2).
//
// Controllers and abstract switches are both nodes p_i of one in-band
// control plane: each runs the self-stabilizing end-to-end transport
// (Section 3.1) and the Theta failure detector (Section 2.2.1), answers
// discovery probes and routes its own control frames in-band. InBandNode
// implements that node once: the staggered task and detection timers, the
// dispatch of packets addressed to the node, Byzantine interposition on
// outbound frames (faults/adversary.hpp), and frame routing toward a peer:
// direct hand-over when adjacent, else the subclass's installed next hops,
// else the port the peer was last heard on, else a no-rule drop. Controller
// and AbstractSwitch supply message delivery, the rule step and the task.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "detect/theta_detector.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "transport/endpoint.hpp"
#include "util/types.hpp"

namespace ren::faults {
class Adversary;
}

namespace ren::transport {

class InBandNode : public net::Node {
 public:
  /// `task_interval` paces the task body and the transport's retransmits,
  /// `detect_interval` the detector's rounds; `theta` is its threshold.
  InBandNode(NodeId id, NodeKind kind, Time task_interval,
             Time detect_interval, int theta);

  void start() override;
  /// Dispatches packets addressed to this node by payload kind (data
  /// segments are ignored). Transit packets are dropped: only switches
  /// relay, and AbstractSwitch forwards them before calling this.
  void on_packet(NodeId from_neighbor, const net::Packet& packet) override;

  [[nodiscard]] const detect::ThetaDetector& detector() const {
    return detector_;
  }
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

  /// Attach/detach a Byzantine adversary (not owned, nullptr = benign).
  /// Interposes on outbound query replies and frames. Harness context only.
  void set_adversary(faults::Adversary* a) { adversary_ = a; }
  [[nodiscard]] faults::Adversary* adversary() const { return adversary_; }

 protected:
  /// An application message the transport delivered from `peer`.
  virtual void on_message(NodeId peer, const proto::MessagePtr& message) = 0;
  /// The first installed next hop for `packet` whose link is operational,
  /// or kNoNode.
  [[nodiscard]] virtual NodeId rule_hop(const net::Packet& packet) = 0;
  /// The task body, run on every task tick ahead of the retransmit tick.
  virtual void run_task() {}

  /// Submit `reply` to `querier` with this node's id, kind and reported
  /// neighborhood filled in. A lying or equivocating adversary tampers with
  /// it right before it enters the transport.
  void answer_query(NodeId querier, proto::QueryReply reply);

  detect::ThetaDetector detector_;
  Endpoint endpoint_;
  std::map<NodeId, NodeId> last_port_;  ///< peer -> most recent in-port

 private:
  void task_tick();
  void detect_tick();
  /// Adversary interposition (corrupt/babble) ahead of emit_frame.
  void route_frame(NodeId peer, proto::PayloadPtr frame, std::uint32_t bytes);
  void emit_frame(NodeId peer, proto::PayloadPtr frame, std::uint32_t bytes);

  faults::Adversary* adversary_ = nullptr;
  std::vector<NodeId> ports_;       ///< detect-tick scratch: attached ports
  proto::PayloadPtr probe_reply_;   ///< reply to the latest probed round
  Time task_interval_;
  Time detect_interval_;
};

}  // namespace ren::transport
