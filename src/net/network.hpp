// The physical network: nodes' adjacency and the set of links.
//
// Terminology follows the paper: Gc (connected communication topology) is
// the set of links that have not failed permanently; Go (operational
// topology) is the subset whose links are currently up.
//
// The network also carries the stack's *topology change epoch*: a monotonic
// counter bumped on every link state transition (links are wired into it by
// add_link) and on node kill/revive (bumped by the Simulator). Measurement
// code — most importantly the legitimacy monitor — uses the epoch to skip
// re-deriving ground truth that cannot have changed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "util/types.hpp"

namespace ren::net {

class Network {
 public:
  Network() = default;
  // Links hold a pointer to epoch_, so the network must stay put.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  struct Edge {
    NodeId neighbor = kNoNode;
    int link = -1;
  };

  /// Grow the adjacency structure to cover node ids [0, n).
  void ensure_nodes(std::size_t n);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Add a bidirectional link; returns its index. Parallel links between the
  /// same pair are not supported (the paper's model has simple graphs).
  int add_link(NodeId a, NodeId b, const LinkParams& params);

  [[nodiscard]] Link& link(int index) { return links_[index]; }
  [[nodiscard]] const Link& link(int index) const { return links_[index]; }

  /// Find the link between a and b, or nullptr.
  [[nodiscard]] Link* find_link(NodeId a, NodeId b);
  [[nodiscard]] const Link* find_link(NodeId a, NodeId b) const;

  /// All configured edges at `n` (including failed links; filter by state).
  [[nodiscard]] const std::vector<Edge>& adjacency(NodeId n) const {
    return adjacency_[static_cast<std::size_t>(n)];
  }

  /// Neighbors of `n` in Gc: links that are not permanently down.
  [[nodiscard]] std::vector<NodeId> neighbors_connected(NodeId n) const;

  /// True when the a-b link exists and is operational (Go membership).
  [[nodiscard]] bool link_operational(NodeId a, NodeId b) const;

  /// True when the a-b link exists and is not permanently down (Gc).
  [[nodiscard]] bool link_connected(NodeId a, NodeId b) const;

  /// Monotonic change counter over everything that defines the ground-truth
  /// topology: link state transitions and node kill/revive events.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Record a topology-affecting change that links cannot observe themselves
  /// (node kill/revive; called by the Simulator).
  void bump_epoch() { ++epoch_; }

 private:
  std::vector<Link> links_;
  std::vector<std::vector<Edge>> adjacency_;
  std::uint64_t epoch_ = 0;
};

}  // namespace ren::net
