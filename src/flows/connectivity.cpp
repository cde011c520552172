#include "flows/connectivity.hpp"

#include <algorithm>

namespace ren::flows {

// --- SparseMaxFlow -----------------------------------------------------------

void SparseMaxFlow::assign(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.n());
  off_.assign(n + 1, 0);
  for (int u = 0; u < g.n(); ++u) {
    off_[static_cast<std::size_t>(u) + 1] =
        off_[static_cast<std::size_t>(u)] +
        static_cast<std::int32_t>(g.neighbors(u).size());
  }
  const auto slots = static_cast<std::size_t>(off_[n]);
  arcs_.resize(slots);
  // Each undirected edge {u, v} with u < v becomes the arc pair (2i, 2i+1):
  // 2i is u->v, 2i+1 is v->u, and arc e's reverse is e^1. Both start at
  // capacity 1 (the undirected unit edge can carry one unit either way;
  // augmenting u->v leaves v->u at 2, which encodes "cancel + reuse").
  to_.resize(slots);
  std::vector<std::int32_t> cursor(off_.begin(), off_.end() - 1);
  std::int32_t next_arc = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v) {
        const std::int32_t fwd = next_arc++;
        const std::int32_t rev = next_arc++;
        to_[static_cast<std::size_t>(fwd)] = v;
        to_[static_cast<std::size_t>(rev)] = u;
        arcs_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = fwd;
        arcs_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = rev;
      }
    }
  }
  cap_.resize(slots);
  parent_.assign(n, -1);
  queue_.clear();
  queue_.reserve(n);
}

int SparseMaxFlow::run(int s, int t, int cap_limit) {
  if (s == t || n() == 0) return 0;
  std::fill(cap_.begin(), cap_.end(), std::int8_t{1});
  int flow = 0;
  while (flow < cap_limit) {
    std::fill(parent_.begin(), parent_.end(), -1);
    parent_[static_cast<std::size_t>(s)] = -2;  // any non-(-1) sentinel
    queue_.clear();
    queue_.push_back(s);
    for (std::size_t head = 0;
         head < queue_.size() && parent_[static_cast<std::size_t>(t)] == -1;
         ++head) {
      const std::int32_t u = queue_[head];
      const std::int32_t end = off_[static_cast<std::size_t>(u) + 1];
      for (std::int32_t i = off_[static_cast<std::size_t>(u)]; i < end; ++i) {
        const std::int32_t e = arcs_[static_cast<std::size_t>(i)];
        if (cap_[static_cast<std::size_t>(e)] <= 0) continue;
        const std::int32_t v = to_[static_cast<std::size_t>(e)];
        if (parent_[static_cast<std::size_t>(v)] != -1) continue;
        parent_[static_cast<std::size_t>(v)] = e;  // arc that discovered v
        queue_.push_back(v);
      }
    }
    if (parent_[static_cast<std::size_t>(t)] == -1) break;
    for (std::int32_t v = t; v != s;) {
      const std::int32_t e = parent_[static_cast<std::size_t>(v)];
      cap_[static_cast<std::size_t>(e)] -= 1;
      cap_[static_cast<std::size_t>(e ^ 1)] += 1;
      v = to_[static_cast<std::size_t>(e ^ 1)];  // tail of e
    }
    ++flow;
  }
  return flow;
}

}  // namespace ren::flows
