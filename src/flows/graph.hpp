// Graph primitives shared by the rule compiler, the topology generators,
// the fault injector and the controllers' topology views.
//
// Two containers and the one graph that algorithms run on:
//  * Graph     — compact, index-based, undirected: the physical fabric as
//                generators and loaders produce it. A container only; the
//                memoized topologies are shared read-only across campaign
//                threads, so it carries no search scratch.
//  * TopoView  — sparse, NodeId-keyed, directed: what a controller *believes*
//                the topology to be (paper: G(S) built from query replies),
//                and the live ground truth. A container: build, compare,
//                fingerprint. Its std::set walks (reachable_set here,
//                disjoint_view_paths in my_rules) serve as oracles and for
//                the off-hot-path data-flow compile.
//  * FlatView  — an index-dense CSR snapshot of either container, and the
//                only graph that algorithms run on: controller reachability,
//                the rule compiler's path searches, fault-connectivity
//                probes, churn routing trees, distances, diameter, max-flow
//                and edge connectivity.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/types.hpp"

namespace ren::net {
class Network;
}

namespace ren::flows {

class Graph {
 public:
  explicit Graph(int n = 0) : adj_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] int n() const { return static_cast<int>(adj_.size()); }
  [[nodiscard]] std::size_t edge_count() const;

  void ensure(int n) {
    if (n > this->n()) adj_.resize(static_cast<std::size_t>(n));
  }
  /// Add an undirected edge (idempotent). Keeps adjacency sorted, which
  /// makes path computations deterministic ("first shortest path").
  void add_edge(int a, int b);
  [[nodiscard]] bool has_edge(int a, int b) const;
  [[nodiscard]] const std::vector<int>& neighbors(int v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<std::vector<int>> adj_;
};

/// A controller's accumulated knowledge of the topology. Node set and edge
/// set follow the paper's G(S) definition: nodes are reply senders and their
/// claimed neighbors; edges are *directed* from a sender to each claimed
/// neighbor. Directed evidence is what makes recovery from state corruption
/// possible: a single corrupted reply can fabricate edges out of its sender,
/// but never paths *into* a real node, so queries keep reaching every real
/// node and fresh replies flush the corruption. In a converged view every
/// physical link is reported by both endpoints, so the view coincides with
/// the symmetric ground-truth topology.
class TopoView {
 public:
  void add_node(NodeId n) { adj_[n]; }
  /// Add the directed edge a -> b (idempotent).
  void add_edge(NodeId a, NodeId b);
  /// Add both directions (used when building ground-truth views).
  void add_sym_edge(NodeId a, NodeId b) {
    add_edge(a, b);
    add_edge(b, a);
  }

  [[nodiscard]] bool has_node(NodeId n) const { return adj_.count(n) != 0; }
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  /// Number of directed edges.
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] const std::map<NodeId, std::vector<NodeId>>& adj() const {
    return adj_;
  }
  /// Out-neighbors of n (claimed by n itself), or nullptr.
  [[nodiscard]] const std::vector<NodeId>* neighbors(NodeId n) const;

  /// Nodes reachable from `from` along directed edges (including `from`).
  [[nodiscard]] std::vector<NodeId> reachable_set(NodeId from) const;

  /// Stable content hash for caching compiled rules per view.
  [[nodiscard]] std::uint64_t fingerprint() const;

  friend bool operator==(const TopoView&, const TopoView&) = default;

 private:
  std::map<NodeId, std::vector<NodeId>> adj_;  // sorted unique out-neighbors
};

/// The live control-plane topology (the paper's Gc): the nodes `live_ids`
/// (any order) and, between them, every link of `net` that is not
/// PermanentDown, in both directions. The fault injector and the legitimacy
/// monitor both build their ground truth here.
[[nodiscard]] TopoView live_topology(const net::Network& net,
                                     std::vector<NodeId> live_ids);

/// An index-dense snapshot of a TopoView or a Graph: node ids are mapped to
/// compact indices 0..n-1 (in sorted id order) with CSR adjacency, so
/// every graph algorithm runs as an integer BFS over flat arrays. The
/// visited array is epoch-stamped: re-assigning or re-running BFS bumps the
/// stamp instead of clearing, and the scratch buffers are retained across
/// assign() calls, so a long-lived FlatView (one per cached controller view)
/// allocates nothing in steady state. A parent array and blocked-edge stamps
/// carry the rule compiler's path searches and the max-flow.
class FlatView {
 public:
  FlatView() = default;

  /// Snapshot `view`. Reuses this instance's buffers.
  void assign(const TopoView& view);
  /// Snapshot `g`; node i keeps index i and id i.
  void assign(const Graph& g);

  [[nodiscard]] int n() const { return static_cast<int>(ids_.size()); }
  /// Compact index of `id`, or -1 when the node is not in the snapshot.
  /// O(1) for the dense ids the protocol produces (a direct table covers
  /// them); corrupt out-of-range ids fall back to a binary search.
  [[nodiscard]] int index_of(NodeId id) const;
  [[nodiscard]] NodeId id_at(int idx) const {
    return ids_[static_cast<std::size_t>(idx)];
  }

  /// BFS along directed edges from `from`, appending reached node ids to
  /// `out` in BFS order (including `from`). Visited stamps stay in place, so
  /// `reached()` afterwards answers membership in O(1). Does nothing when
  /// `from` is not in the snapshot.
  void reachable_from(NodeId from, std::vector<NodeId>& out);
  /// Membership in the most recent reachable_from() or search() run.
  [[nodiscard]] bool reached(NodeId id) const;

  // --- Path search -----------------------------------------------------------
  // Works on compact indices. Blocked edges are epoch-stamped like the
  // visited array: unblocking everything is one stamp bump.

  /// CSR position of the directed edge u -> v, or -1 when it is absent.
  [[nodiscard]] int edge_index(int u, int v) const;
  /// Unblock every edge.
  void clear_blocked();
  /// Block u -> v and v -> u, whichever of them exist.
  void block_both(int u, int v);
  /// BFS from `src` over unblocked edges, recording parents. A node other
  /// than `src` is expanded only when `relay[idx]` is nonzero (it may still
  /// be reached as an endpoint). Neighbors are scanned in id order, so the
  /// tree is the deterministic "first shortest path" tree. Stops as soon as
  /// `dst` is reached; `dst` < 0 grows the whole tree. Returns whether `dst`
  /// was reached (always true for `dst` < 0).
  bool search(int src, int dst, const std::vector<std::uint8_t>& relay);
  /// Parent of `idx` in the last search() (`src` is its own parent), or -1
  /// when that search did not reach it.
  [[nodiscard]] int parent(int idx) const;
  /// Indices the last search() reached, in BFS order (`src` first). A
  /// search that stopped at `dst` leaves `dst` out.
  [[nodiscard]] const std::vector<std::int32_t>& order() const {
    return queue_;
  }

  // --- Whole-graph algorithms ----------------------------------------------
  // Each unblocks every edge and lets every node relay. Max-flow and edge
  // connectivity count unit-capacity undirected edges, so they need a
  // symmetric snapshot: a Graph, or a view like live_topology().

  /// Hop distances from index `src`, by index; unreachable = -1.
  [[nodiscard]] std::vector<int> distances(int src);
  /// Largest hop distance over all reachable pairs.
  [[nodiscard]] int diameter();
  /// Edge-disjoint paths between indices `s` and `t`, counted up to
  /// `cap_limit` (callers that only need "at least k" pass k).
  [[nodiscard]] int max_flow(int s, int t, int cap_limit);
  /// Global edge connectivity lambda; 0 when disconnected or n < 2.
  [[nodiscard]] int edge_connectivity();

 private:
  /// Edmonds-Karp from zero flow, one search() per augmenting path. Edge
  /// {u, v} holds residual 2 over its arcs, and an arc is blocked exactly
  /// when it holds 0: augmenting u -> v unblocks v -> u if it was blocked,
  /// else blocks u -> v. Only the arcs on the path change.
  int augment(int s, int t, int cap_limit,
              const std::vector<std::uint8_t>& relay);
  /// depth[v] for every v the last search() reached; returns the largest.
  int tree_depths(std::vector<int>& depth) const;
  void reset_scratch();  // after the CSR arrays were rebuilt

  std::vector<NodeId> ids_;           // sorted node ids (map order)
  std::vector<std::int32_t> direct_;  // id -> index table for dense ids
  std::vector<std::int32_t> off_;     // CSR offsets (size n+1)
  std::vector<std::int32_t> nbr_;     // CSR neighbor indices
  std::vector<std::uint32_t> mark_;   // epoch-stamped visited array
  std::vector<std::int32_t> queue_;   // BFS scratch (BFS order)
  std::vector<std::int32_t> parent_;  // search() parents, valid where marked
  std::vector<std::uint32_t> blocked_;  // epoch-stamped, indexed by CSR edge
  std::uint32_t stamp_ = 0;
  std::uint32_t block_stamp_ = 1;
};

/// "Does the view stay connected without this node / this edge?" for many
/// candidates over one snapshot. The view is flattened once; each question
/// is one FlatView::search from the smallest remaining node, in which a
/// removed node may be reached but is never expanded (its relay bit is
/// zero) and a removed edge is blocked both ways. Connected means that
/// search reaches every remaining node; nothing remaining counts as
/// connected.
class ConnectivityProbe {
 public:
  explicit ConnectivityProbe(const TopoView& view);

  [[nodiscard]] bool empty() const { return flat_.n() == 0; }
  [[nodiscard]] bool connected_without_node(NodeId x);
  [[nodiscard]] bool connected_without_edge(NodeId a, NodeId b);

 private:
  FlatView flat_;
  std::vector<std::uint8_t> relay_;  // all ones between probes
};

}  // namespace ren::flows
