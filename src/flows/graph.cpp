#include "flows/graph.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "flows/connectivity.hpp"

namespace ren::flows {

// --- Graph ------------------------------------------------------------------

std::size_t Graph::edge_count() const {
  std::size_t deg = 0;
  for (const auto& a : adj_) deg += a.size();
  return deg / 2;
}

void Graph::add_edge(int a, int b) {
  ensure(std::max(a, b) + 1);
  auto insert_sorted = [](std::vector<int>& v, int x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it == v.end() || *it != x) v.insert(it, x);
  };
  insert_sorted(adj_[static_cast<std::size_t>(a)], b);
  insert_sorted(adj_[static_cast<std::size_t>(b)], a);
}

void Graph::remove_edge(int a, int b) {
  auto erase_sorted = [](std::vector<int>& v, int x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it != v.end() && *it == x) v.erase(it);
  };
  if (a < n() && b < n()) {
    erase_sorted(adj_[static_cast<std::size_t>(a)], b);
    erase_sorted(adj_[static_cast<std::size_t>(b)], a);
  }
}

bool Graph::has_edge(int a, int b) const {
  if (a >= n() || b >= n()) return false;
  const auto& v = adj_[static_cast<std::size_t>(a)];
  return std::binary_search(v.begin(), v.end(), b);
}

std::vector<int> Graph::bfs_dist(int src) const {
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  std::deque<int> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push_back(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    for (int v : adj_[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push_back(v);
      }
    }
  }
  return dist;
}

bool Graph::connected() const {
  if (n() == 0) return true;
  const auto d = bfs_dist(0);
  return std::none_of(d.begin(), d.end(), [](int x) { return x < 0; });
}

int Graph::diameter() const {
  int best = 0;
  for (int s = 0; s < n(); ++s) {
    for (int d : bfs_dist(s)) best = std::max(best, d);
  }
  return best;
}

int Graph::edge_disjoint_path_count(int s, int t) const {
  if (s == t) return 0;
  SparseMaxFlow flow(*this);
  return flow.run(s, t, n());
}

int Graph::edge_connectivity() const {
  if (n() < 2) return 0;
  if (!connected()) return 0;
  // lambda(G) = min over t != 0 of maxflow(0, t): every cut separates node 0
  // from some t. One SparseMaxFlow instance serves all n-1 runs (a run only
  // resets the O(m) residual capacities), and each run is capped at the
  // running minimum — a flow can't raise the min, so pushing past the best
  // known cut is wasted work. deg(0) seeds the bound.
  SparseMaxFlow flow(*this);
  int best = static_cast<int>(neighbors(0).size());
  for (int t = 1; t < n() && best > 0; ++t) {
    best = std::min(best, flow.run(0, t, best));
  }
  return best;
}

std::uint64_t Graph::fingerprint() const {
  // FNV-1a over the sorted adjacency structure, node count included so that
  // isolated trailing nodes change the hash.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(n()));
  for (int u = 0; u < n(); ++u) {
    mix(static_cast<std::uint64_t>(u) + 0x9e37);
    for (int v : adj_[static_cast<std::size_t>(u)]) {
      mix(static_cast<std::uint64_t>(v) + 0x85eb);
    }
  }
  return h;
}

// --- TopoView ---------------------------------------------------------------

void TopoView::add_edge(NodeId a, NodeId b) {
  auto& v = adj_[a];
  auto it = std::lower_bound(v.begin(), v.end(), b);
  if (it == v.end() || *it != b) v.insert(it, b);
  adj_[b];  // the claimed neighbor becomes a node of the view
}

bool TopoView::has_edge(NodeId a, NodeId b) const {
  auto it = adj_.find(a);
  if (it == adj_.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), b);
}

std::size_t TopoView::edge_count() const {
  std::size_t deg = 0;
  for (const auto& [_, nbrs] : adj_) deg += nbrs.size();
  return deg;
}

const std::vector<NodeId>* TopoView::neighbors(NodeId n) const {
  auto it = adj_.find(n);
  return it == adj_.end() ? nullptr : &it->second;
}

std::vector<NodeId> TopoView::reachable_set(NodeId from) const {
  std::vector<NodeId> out;
  if (!has_node(from)) return out;
  std::set<NodeId> seen{from};
  std::deque<NodeId> q{from};
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    out.push_back(u);
    if (const auto* nbrs = neighbors(u)) {
      for (NodeId v : *nbrs) {
        if (seen.insert(v).second) q.push_back(v);
      }
    }
  }
  return out;
}

bool TopoView::reachable(NodeId from, NodeId to) const {
  if (from == to) return has_node(from);
  if (!has_node(from)) return false;
  std::set<NodeId> seen{from};
  std::deque<NodeId> q{from};
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    if (const auto* nbrs = neighbors(u)) {
      for (NodeId v : *nbrs) {
        if (v == to) return true;
        if (seen.insert(v).second) q.push_back(v);
      }
    }
  }
  return false;
}

// --- FlatView ---------------------------------------------------------------

void FlatView::assign(const TopoView& view) {
  const auto n = view.adj().size();
  ids_.clear();
  ids_.reserve(n);
  off_.clear();
  off_.reserve(n + 1);
  nbr_.clear();
  nbr_.reserve(view.edge_count());
  for (const auto& [id, _] : view.adj()) ids_.push_back(id);

  // Direct id -> index table when the id range is reasonably dense (the
  // protocol's ids are 0..N-1; only corrupt replies fabricate outliers).
  const NodeId max_id = ids_.empty() ? -1 : ids_.back();
  const bool dense = max_id >= 0 &&
                     static_cast<std::size_t>(max_id) < 4 * n + 1024;
  direct_.clear();
  if (dense) {
    direct_.assign(static_cast<std::size_t>(max_id) + 1, -1);
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] >= 0) direct_[static_cast<std::size_t>(ids_[i])] =
          static_cast<std::int32_t>(i);
    }
  }

  off_.push_back(0);
  for (const auto& [_, nbrs] : view.adj()) {
    for (NodeId v : nbrs) {
      // Claimed neighbors are always nodes of the view (TopoView::add_edge).
      nbr_.push_back(static_cast<std::int32_t>(index_of(v)));
    }
    off_.push_back(static_cast<std::int32_t>(nbr_.size()));
  }
  mark_.assign(ids_.size(), 0);
  stamp_ = 0;
  parent_.resize(ids_.size());
  blocked_.assign(nbr_.size(), 0);
  block_stamp_ = 1;
}

int FlatView::index_of(NodeId id) const {
  if (!direct_.empty()) {
    if (id < 0 || static_cast<std::size_t>(id) >= direct_.size()) return -1;
    return direct_[static_cast<std::size_t>(id)];
  }
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return -1;
  return static_cast<int>(it - ids_.begin());
}

void FlatView::reachable_from(NodeId from, std::vector<NodeId>& out) {
  if (++stamp_ == 0) {  // stamp wrapped: reset marks once, restart at 1
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 1;
  }
  const int src = index_of(from);
  if (src < 0) return;
  queue_.clear();
  queue_.push_back(src);
  mark_[static_cast<std::size_t>(src)] = stamp_;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t u = queue_[head];
    out.push_back(ids_[static_cast<std::size_t>(u)]);
    const std::int32_t end = off_[static_cast<std::size_t>(u) + 1];
    for (std::int32_t e = off_[static_cast<std::size_t>(u)]; e < end; ++e) {
      const std::int32_t v = nbr_[static_cast<std::size_t>(e)];
      if (mark_[static_cast<std::size_t>(v)] != stamp_) {
        mark_[static_cast<std::size_t>(v)] = stamp_;
        queue_.push_back(v);
      }
    }
  }
}

bool FlatView::reached(NodeId id) const {
  if (stamp_ == 0) return false;  // no search since assign()
  const int idx = index_of(id);
  return idx >= 0 && mark_[static_cast<std::size_t>(idx)] == stamp_;
}

int FlatView::edge_index(int u, int v) const {
  const auto first = nbr_.begin() + off_[static_cast<std::size_t>(u)];
  const auto last = nbr_.begin() + off_[static_cast<std::size_t>(u) + 1];
  // Neighbor ids are sorted and indices follow id order, so indices are too.
  const auto it = std::lower_bound(first, last, v);
  return it != last && *it == v ? static_cast<int>(it - nbr_.begin()) : -1;
}

void FlatView::clear_blocked() {
  if (++block_stamp_ == 0) {  // stamp wrapped: reset once, restart at 1
    std::fill(blocked_.begin(), blocked_.end(), 0);
    block_stamp_ = 1;
  }
}

void FlatView::block_both(int u, int v) {
  for (const int e : {edge_index(u, v), edge_index(v, u)}) {
    if (e >= 0) blocked_[static_cast<std::size_t>(e)] = block_stamp_;
  }
}

bool FlatView::search(int src, int dst,
                      const std::vector<std::uint8_t>& relay) {
  if (++stamp_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 1;
  }
  queue_.clear();
  queue_.push_back(src);
  mark_[static_cast<std::size_t>(src)] = stamp_;
  parent_[static_cast<std::size_t>(src)] = src;
  if (src == dst) return true;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t u = queue_[head];
    if (u != src && relay[static_cast<std::size_t>(u)] == 0) continue;
    const std::int32_t end = off_[static_cast<std::size_t>(u) + 1];
    for (std::int32_t e = off_[static_cast<std::size_t>(u)]; e < end; ++e) {
      const std::int32_t v = nbr_[static_cast<std::size_t>(e)];
      if (mark_[static_cast<std::size_t>(v)] == stamp_ ||
          blocked_[static_cast<std::size_t>(e)] == block_stamp_) {
        continue;
      }
      mark_[static_cast<std::size_t>(v)] = stamp_;
      parent_[static_cast<std::size_t>(v)] = u;
      if (v == dst) return true;
      queue_.push_back(v);
    }
  }
  return dst < 0;
}

int FlatView::parent(int idx) const {
  return stamp_ != 0 && mark_[static_cast<std::size_t>(idx)] == stamp_
             ? parent_[static_cast<std::size_t>(idx)]
             : -1;
}

std::uint64_t TopoView::fingerprint() const {
  // FNV-1a over the sorted adjacency structure.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& [node, nbrs] : adj_) {
    mix(static_cast<std::uint64_t>(node) + 0x9e37);
    for (NodeId v : nbrs) mix(static_cast<std::uint64_t>(v) + 0x85eb);
  }
  return h;
}

}  // namespace ren::flows
