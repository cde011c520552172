#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ren::net {

void Network::ensure_nodes(std::size_t n) {
  if (adjacency_.size() < n) adjacency_.resize(n);
}

int Network::add_link(NodeId a, NodeId b, const LinkParams& params) {
  if (a == b) throw std::invalid_argument("add_link: self-loop");
  ensure_nodes(static_cast<std::size_t>(std::max(a, b)) + 1);
  if (find_link(a, b) != nullptr)
    throw std::invalid_argument("add_link: duplicate link");
  const int index = static_cast<int>(links_.size());
  links_.emplace_back(index, a, b, params);
  links_.back().attach_epoch(&epoch_);
  adjacency_[static_cast<std::size_t>(a)].push_back(Edge{b, index});
  adjacency_[static_cast<std::size_t>(b)].push_back(Edge{a, index});
  ++epoch_;
  return index;
}

Link* Network::find_link(NodeId a, NodeId b) {
  for (const Edge& e : adjacency_[static_cast<std::size_t>(a)]) {
    if (e.neighbor == b) return &links_[static_cast<std::size_t>(e.link)];
  }
  return nullptr;
}

const Link* Network::find_link(NodeId a, NodeId b) const {
  return const_cast<Network*>(this)->find_link(a, b);
}

std::vector<NodeId> Network::neighbors_connected(NodeId n) const {
  std::vector<NodeId> out;
  for (const Edge& e : adjacency_[static_cast<std::size_t>(n)]) {
    if (links_[static_cast<std::size_t>(e.link)].state() !=
        LinkState::PermanentDown)
      out.push_back(e.neighbor);
  }
  return out;
}

bool Network::link_operational(NodeId a, NodeId b) const {
  const Link* l = find_link(a, b);
  return l != nullptr && l->operational();
}

bool Network::link_connected(NodeId a, NodeId b) const {
  const Link* l = find_link(a, b);
  return l != nullptr && l->state() != LinkState::PermanentDown;
}

}  // namespace ren::net
