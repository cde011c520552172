// kappa-fault-resilient flows (paper Section 2.2.2).
//
// Verification-side helper: a rule-walk simulator used by the legitimacy
// monitor and the property tests to check that installed rules really
// survive up to kappa link failures.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "flows/graph.hpp"
#include "util/types.hpp"

namespace ren::flows {

/// Walks a packet from `src` toward `dst` using a forwarding oracle:
/// `next_hop(at, pkt_src, pkt_dst)` returns the chosen out-neighbor at a
/// relay, or nullopt to drop. `first_hops` are the ordered candidates at the
/// source; `link_up(a,b)` models Go. Returns the traversed path on success.
struct WalkResult {
  bool delivered = false;
  std::vector<NodeId> path;  ///< nodes visited, starting at src
  bool ttl_exceeded = false;
};
WalkResult rule_walk(
    NodeId src, NodeId dst, const std::vector<NodeId>& first_hops,
    const std::function<std::optional<NodeId>(NodeId at, NodeId s, NodeId d)>&
        next_hop,
    const std::function<bool(NodeId, NodeId)>& link_up, int ttl);

}  // namespace ren::flows
