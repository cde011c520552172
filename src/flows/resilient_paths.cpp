#include "flows/resilient_paths.hpp"

namespace ren::flows {

WalkResult rule_walk(
    NodeId src, NodeId dst, const std::vector<NodeId>& first_hops,
    const std::function<std::optional<NodeId>(NodeId at, NodeId s, NodeId d)>&
        next_hop,
    const std::function<bool(NodeId, NodeId)>& link_up, int ttl) {
  WalkResult r;
  r.path.push_back(src);
  if (src == dst) {
    r.delivered = true;
    return r;
  }
  NodeId at = kNoNode;
  for (NodeId h : first_hops) {
    if (link_up(src, h)) {
      at = h;
      break;
    }
  }
  if (at == kNoNode) return r;
  r.path.push_back(at);
  while (ttl-- > 0) {
    if (at == dst) {
      r.delivered = true;
      return r;
    }
    const auto nh = next_hop(at, src, dst);
    if (!nh.has_value()) return r;  // dropped: no applicable rule
    at = *nh;
    r.path.push_back(at);
  }
  r.ttl_exceeded = true;
  return r;
}

}  // namespace ren::flows
