// The abstract SDN switch (paper Section 2.1).
//
// Beyond match-action forwarding, the abstract switch offers exactly the
// small control surface the paper needs:
//  * configuration queries and command batches from controllers (equal-role
//    multi-controller management, bounded manager set with LRU eviction),
//  * per-controller meta (round) tags echoed in query replies,
//  * query-by-neighbor: packets addressed to a direct neighbor are handed
//    over even without an installed rule — this is what lets a controller
//    bootstrap ring-by-ring,
//  * local topology discovery via the Theta failure detector.
//
// Control traffic is in-band: a frame destined elsewhere is forwarded by the
// rule table's fast-failover candidates; frames addressed to the switch go
// to its control module.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "detect/theta_detector.hpp"
#include "flows/resilient_paths.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "switchd/rule_table.hpp"
#include "transport/endpoint.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::faults {
class Adversary;
}

namespace ren::switchd {

class AbstractSwitch : public net::Node {
 public:
  struct Config {
    std::size_t max_rules = 1u << 20;   ///< clogged-memory bound
    std::size_t max_managers = 64;      ///< bounded manager set
    Time tick_interval = msec(500);     ///< control-module timer (retransmits)
    Time detect_interval = msec(100);   ///< neighborhood discovery interval
    int theta = 10;                     ///< failure-detector threshold
  };

  AbstractSwitch(NodeId id, Config config);

  void start() override;
  void on_packet(NodeId from_neighbor, const net::Packet& packet) override;

  // --- Introspection (legitimacy monitor, tests) -------------------------
  [[nodiscard]] RuleTable& rule_table() { return rules_; }
  [[nodiscard]] const RuleTable& rule_table() const { return rules_; }
  [[nodiscard]] std::vector<NodeId> managers() const;
  [[nodiscard]] const detect::ThetaDetector& detector() const {
    return detector_;
  }
  [[nodiscard]] const transport::Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] std::uint64_t manager_evictions() const {
    return manager_evictions_;
  }
  /// Bumps whenever the manager *set* changes (insertions, deletions,
  /// evictions — LRU touch refreshes do not count).
  [[nodiscard]] std::uint64_t manager_epoch() const { return manager_epoch_; }
  /// Combined monitor-relevant change epoch of this switch: manager set +
  /// rule-table content. Monotonic; unchanged implies the monitor's verdict
  /// about this switch is unchanged (given an unchanged ground truth).
  [[nodiscard]] std::uint64_t change_epoch() const {
    return manager_epoch_ + rules_.epoch();
  }
  /// The port the given peer was last heard on (kNoNode if never).
  [[nodiscard]] NodeId last_port_of(NodeId peer) const {
    auto it = last_port_.find(peer);
    return it == last_port_.end() ? kNoNode : it->second;
  }

  /// Transient-fault hook: corrupt rules, managers, detector, transport and
  /// reply-routing state (tests / self-stabilization experiments).
  void corrupt_state(Rng& rng, NodeId node_space);

  /// Attach/detach a Byzantine adversary (faults/adversary.hpp; not owned,
  /// nullptr = benign). Interposes on outbound query replies and frames.
  /// Harness context only.
  void set_adversary(faults::Adversary* a) { adversary_ = a; }
  [[nodiscard]] faults::Adversary* adversary() const { return adversary_; }

 private:
  void control_tick();
  void detect_tick();
  /// Apply a delivered command batch. The payload is shared and immutable:
  /// commands are consumed in place and rule lists flow into the rule table
  /// by pointer, never copied.
  void apply_batch(NodeId from, const proto::MessagePtr& message);
  void add_manager(NodeId k);
  void del_manager(NodeId k);
  /// Forward a transit packet using the rule table (fast-failover order),
  /// falling back to direct hand-over when the destination is adjacent.
  void forward_packet(const net::Packet& packet);
  /// Route a locally originated frame payload toward `peer`. route_frame
  /// runs adversary interposition (corrupt/babble), emit_frame the routing.
  void route_frame(NodeId peer, proto::PayloadPtr frame, std::uint32_t bytes);
  void emit_frame(NodeId peer, proto::PayloadPtr frame, std::uint32_t bytes);

  Config config_;
  RuleTable rules_;
  std::map<NodeId, std::uint64_t> managers_;  ///< manager -> LRU stamp
  std::uint64_t manager_touch_ = 0;
  std::uint64_t manager_evictions_ = 0;
  std::uint64_t manager_epoch_ = 0;
  detect::ThetaDetector detector_;
  transport::Endpoint endpoint_;
  std::map<NodeId, NodeId> last_port_;  ///< peer -> most recent in-port
  faults::Adversary* adversary_ = nullptr;
};

/// The data plane's forwarding step over the installed rules, as rule walks
/// (flows::rule_walk) take it: at a live switch, the first rule candidate
/// for (src, dst) whose out-link is operational, else `dst` itself over an
/// operational link; nothing at any other node (controllers and hosts do
/// not relay). Bound to the switches that are alive at construction.
class RuleForwarding {
 public:
  RuleForwarding(const net::Network& net,
                 const std::vector<AbstractSwitch*>& switches);

  /// Whether `id` is one of the bound live switches.
  [[nodiscard]] bool forwards(NodeId id) const {
    return live_switch(id) != nullptr;
  }
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId at, NodeId src,
                                               NodeId dst) const;
  /// flows::rule_walk with next_hop() over the network's operational links.
  [[nodiscard]] flows::WalkResult walk(NodeId src, NodeId dst,
                                       const std::vector<NodeId>& first_hops,
                                       int ttl) const;

 private:
  [[nodiscard]] AbstractSwitch* live_switch(NodeId id) const;

  const net::Network& net_;
  std::vector<AbstractSwitch*> live_;  ///< indexed by node id
};

}  // namespace ren::switchd
