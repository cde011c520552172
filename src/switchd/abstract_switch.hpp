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

#include "flows/resilient_paths.hpp"
#include "switchd/rule_table.hpp"
#include "transport/in_band_node.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::switchd {

class AbstractSwitch final : public transport::InBandNode {
 public:
  struct Config {
    std::size_t max_rules = 1u << 20;   ///< clogged-memory bound
    std::size_t max_managers = 64;      ///< bounded manager set
    Time tick_interval = msec(500);     ///< control-module timer (retransmits)
    Time detect_interval = msec(100);   ///< neighborhood discovery interval
    int theta = 10;                     ///< failure-detector threshold
  };

  AbstractSwitch(NodeId id, Config config);

  /// Transit packets take forward_packet; the rest go to the control module.
  void on_packet(NodeId from_neighbor, const net::Packet& packet) override;

  // --- Introspection (legitimacy monitor, tests) -------------------------
  [[nodiscard]] RuleTable& rule_table() { return rules_; }
  [[nodiscard]] const RuleTable& rule_table() const { return rules_; }
  [[nodiscard]] std::vector<NodeId> managers() const;
  [[nodiscard]] std::uint64_t manager_evictions() const {
    return manager_evictions_;
  }
  /// Combined monitor-relevant change epoch of this switch: manager set
  /// (insertions, deletions, evictions — LRU touch refreshes do not count) +
  /// rule-table content. Monotonic; unchanged implies the monitor's verdict
  /// about this switch is unchanged (given an unchanged ground truth).
  [[nodiscard]] std::uint64_t change_epoch() const {
    return manager_epoch_ + rules_.epoch();
  }

  /// Transient-fault hook: corrupt rules, managers, detector, transport and
  /// reply-routing state (tests / self-stabilization experiments).
  void corrupt_state(Rng& rng, NodeId node_space);

 private:
  /// Apply a delivered command batch (replies are never consumed here). The
  /// payload is shared and immutable: commands are consumed in place and
  /// rule lists flow into the rule table by pointer, never copied.
  void on_message(NodeId from, const proto::MessagePtr& message) override;
  /// The rule table's fast-failover candidates for (src, dst): the route
  /// of transit packets and of the switch's own frames alike.
  [[nodiscard]] NodeId rule_hop(const net::Packet& packet) override;
  void add_manager(NodeId k);
  void del_manager(NodeId k);
  /// Forward a transit packet using the rule table (fast-failover order),
  /// falling back to direct hand-over when the destination is adjacent.
  void forward_packet(const net::Packet& packet);

  Config config_;
  RuleTable rules_;
  std::map<NodeId, std::uint64_t> managers_;  ///< manager -> LRU stamp
  std::uint64_t manager_touch_ = 0;
  std::uint64_t manager_evictions_ = 0;
  std::uint64_t manager_epoch_ = 0;  ///< bumps when the manager set changes
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
