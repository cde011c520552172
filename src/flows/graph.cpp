#include "flows/graph.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>

#include "net/simulator.hpp"

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

bool Graph::has_edge(int a, int b) const {
  if (a >= n() || b >= n()) return false;
  const auto& v = adj_[static_cast<std::size_t>(a)];
  return std::binary_search(v.begin(), v.end(), b);
}

// --- TopoView ---------------------------------------------------------------

void TopoView::add_edge(NodeId a, NodeId b) {
  auto& v = nodes_[a].out;
  auto it = std::lower_bound(v.begin(), v.end(), b);
  if (it == v.end() || *it != b) v.insert(it, b);
  nodes_[b];  // the claimed neighbor becomes a node of the view
}

bool TopoView::has_edge(NodeId a, NodeId b) const {
  const auto* out = neighbors(a);
  return out != nullptr && std::binary_search(out->begin(), out->end(), b);
}

std::size_t TopoView::edge_count() const {
  std::size_t deg = 0;
  for (const auto& [_, node] : nodes_) deg += node.out.size();
  return deg;
}

const std::vector<NodeId>* TopoView::neighbors(NodeId n) const {
  auto it = nodes_.find(n);
  return it == nodes_.end() ? nullptr : &it->second.out;
}

std::optional<NodeKind> TopoView::kind(NodeId n) const {
  auto it = nodes_.find(n);
  return it == nodes_.end() ? std::nullopt : it->second.kind;
}

bool TopoView::relays(NodeId n) const {
  auto it = nodes_.find(n);
  return it == nodes_.end() || it->second.relays();
}

bool same_graph(const TopoView& a, const TopoView& b) {
  return std::equal(a.nodes().begin(), a.nodes().end(), b.nodes().begin(),
                    b.nodes().end(), [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second.out == y.second.out;
                    });
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

TopoView live_topology(const net::Simulator& sim,
                       std::vector<NodeId> live_ids) {
  std::sort(live_ids.begin(), live_ids.end());
  const net::Network& net = sim.network();
  TopoView view;
  for (NodeId n : live_ids) view.set_kind(n, sim.node(n).kind());
  for (NodeId n : live_ids) {
    for (const auto& e : net.adjacency(n)) {
      if (net.link(e.link).state() == net::LinkState::PermanentDown) continue;
      if (!std::binary_search(live_ids.begin(), live_ids.end(), e.neighbor))
        continue;
      view.add_edge(n, e.neighbor);
    }
  }
  return view;
}

// --- FlatView ---------------------------------------------------------------

void FlatView::assign(const TopoView& view) {
  const auto n = view.node_count();
  ids_.clear();
  ids_.reserve(n);
  off_.clear();
  off_.reserve(n + 1);
  nbr_.clear();
  nbr_.reserve(view.edge_count());
  for (const auto& [id, _] : view.nodes()) ids_.push_back(id);

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
  for (const auto& [_, node] : view.nodes()) {
    for (NodeId v : node.out) {
      // Claimed neighbors are always nodes of the view (TopoView::add_edge).
      nbr_.push_back(static_cast<std::int32_t>(index_of(v)));
    }
    off_.push_back(static_cast<std::int32_t>(nbr_.size()));
  }
  reset_scratch();
}

void FlatView::assign(const Graph& g) {
  ids_.resize(static_cast<std::size_t>(g.n()));
  std::iota(ids_.begin(), ids_.end(), 0);
  direct_.assign(ids_.begin(), ids_.end());  // index i is node i
  off_.clear();
  off_.reserve(ids_.size() + 1);
  off_.push_back(0);
  nbr_.clear();
  nbr_.reserve(2 * g.edge_count());  // one exact block, no regrowth
  for (int u = 0; u < g.n(); ++u) {
    nbr_.insert(nbr_.end(), g.neighbors(u).begin(), g.neighbors(u).end());
    off_.push_back(static_cast<std::int32_t>(nbr_.size()));
  }
  reset_scratch();
}

void FlatView::reset_scratch() {
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

std::vector<int> FlatView::distances(int src) {
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  clear_blocked();
  search(src, -1, std::vector<std::uint8_t>(static_cast<std::size_t>(n()), 1));
  tree_depths(dist);
  return dist;
}

int FlatView::diameter() {
  const std::vector<std::uint8_t> relay(static_cast<std::size_t>(n()), 1);
  std::vector<int> depth(static_cast<std::size_t>(n()));
  clear_blocked();
  int best = 0;
  for (int s = 0; s < n(); ++s) {
    search(s, -1, relay);
    best = std::max(best, tree_depths(depth));
  }
  return best;
}

int FlatView::tree_depths(std::vector<int>& depth) const {
  int deepest = 0;
  for (const std::int32_t v : queue_) {  // parents come before children
    const std::int32_t p = parent_[static_cast<std::size_t>(v)];
    const int d = p == v ? 0 : depth[static_cast<std::size_t>(p)] + 1;
    depth[static_cast<std::size_t>(v)] = d;
    deepest = std::max(deepest, d);
  }
  return deepest;
}

int FlatView::max_flow(int s, int t, int cap_limit) {
  return augment(s, t, cap_limit,
                 std::vector<std::uint8_t>(static_cast<std::size_t>(n()), 1));
}

int FlatView::augment(int s, int t, int cap_limit,
                      const std::vector<std::uint8_t>& relay) {
  clear_blocked();
  if (s == t) return 0;
  int flow = 0;
  for (; flow < cap_limit && search(s, t, relay); ++flow) {
    for (int v = t; v != s; v = parent_[static_cast<std::size_t>(v)]) {
      const int u = parent_[static_cast<std::size_t>(v)];
      const int rev = edge_index(v, u);
      if (rev >= 0 && blocked_[static_cast<std::size_t>(rev)] == block_stamp_) {
        blocked_[static_cast<std::size_t>(rev)] = 0;
      } else {
        blocked_[static_cast<std::size_t>(edge_index(u, v))] = block_stamp_;
      }
    }
  }
  return flow;
}

int FlatView::edge_connectivity() {
  if (n() < 2) return 0;
  const std::vector<std::uint8_t> relay(static_cast<std::size_t>(n()), 1);
  clear_blocked();
  search(0, -1, relay);
  if (static_cast<int>(queue_.size()) < n()) return 0;  // disconnected
  // lambda(G) = min over t != 0 of maxflow(0, t): every cut separates node 0
  // from some t. Each run is capped at the running minimum — a flow can't
  // lower it, so pushing past the best known cut is wasted work — and deg(0)
  // seeds the bound.
  int best = off_[1] - off_[0];
  for (int t = 1; t < n() && best > 0; ++t) {
    best = std::min(best, augment(0, t, best, relay));
  }
  return best;
}

// --- ConnectivityProbe ------------------------------------------------------

ConnectivityProbe::ConnectivityProbe(const TopoView& view) {
  flat_.assign(view);
  relay_.assign(static_cast<std::size_t>(flat_.n()), 1);
}

bool ConnectivityProbe::connected_without_node(NodeId x) {
  const int skip = flat_.index_of(x);
  const int remaining = flat_.n() - (skip >= 0 ? 1 : 0);
  if (remaining == 0) return true;
  flat_.clear_blocked();
  if (skip >= 0) relay_[static_cast<std::size_t>(skip)] = 0;
  flat_.search(skip == 0 ? 1 : 0, -1, relay_);
  if (skip >= 0) relay_[static_cast<std::size_t>(skip)] = 1;
  const bool skip_reached = skip >= 0 && flat_.parent(skip) >= 0;
  return static_cast<int>(flat_.order().size()) - (skip_reached ? 1 : 0) ==
         remaining;
}

bool ConnectivityProbe::connected_without_edge(NodeId a, NodeId b) {
  if (empty()) return true;
  flat_.clear_blocked();
  const int ia = flat_.index_of(a);
  const int ib = flat_.index_of(b);
  if (ia >= 0 && ib >= 0) flat_.block_both(ia, ib);
  flat_.search(0, -1, relay_);
  return static_cast<int>(flat_.order().size()) == flat_.n();
}

std::uint64_t TopoView::fingerprint() const {
  // FNV-1a over the sorted adjacency structure and the relay bits.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& [n, node] : nodes_) {
    mix(static_cast<std::uint64_t>(n) * 2 + (node.relays() ? 1 : 0) + 0x9e37);
    for (NodeId v : node.out) mix(static_cast<std::uint64_t>(v) + 0x85eb);
  }
  return h;
}

}  // namespace ren::flows
