// Sparse unit-capacity max-flow for 1k+ switch fabrics.
//
// The seed computed unit-capacity max-flows over a flat n x n residual
// matrix — a 2 MiB allocation per (s, t) pair at 1,000 nodes, touched n-1
// times by edge_connectivity(). SparseMaxFlow replaces it: Edmonds-Karp over
// a paired-arc adjacency list (CSR of arc ids, residual capacities per arc).
// Memory is O(m), buffers are reused across runs on the same graph, and a
// run resets only the 2m arc capacities. Graph::edge_connectivity() is its
// one production caller.
#pragma once

#include <cstdint>
#include <vector>

#include "flows/graph.hpp"

namespace ren::flows {

/// Reusable unit-capacity max-flow over an undirected Graph. Each undirected
/// edge becomes a pair of arcs (e, e^1) with capacity 1 each; augmenting
/// along one direction refunds the other. No n x n residual matrix exists
/// anywhere: peak memory is O(n + m).
class SparseMaxFlow {
 public:
  SparseMaxFlow() = default;
  explicit SparseMaxFlow(const Graph& g) { assign(g); }

  /// Snapshot `g`'s adjacency into the arc arena. Buffers are reused.
  void assign(const Graph& g);

  [[nodiscard]] int n() const { return static_cast<int>(off_.empty() ? 0 : off_.size() - 1); }

  /// Max s->t flow, stopping early once `cap_limit` augmenting paths were
  /// found (callers that only need "at least k" pass k). Resets the residual
  /// capacities (O(m)) and runs BFS augmentation from scratch.
  int run(int s, int t, int cap_limit);

 private:
  std::vector<std::int32_t> off_;     // CSR: node -> first arc-slot
  std::vector<std::int32_t> arcs_;    // arc ids per node (CSR payload)
  std::vector<std::int32_t> to_;      // arc id -> head node
  std::vector<std::int8_t> cap_;      // arc id -> residual capacity (0..2)
  std::vector<std::int32_t> parent_;  // BFS: arc that discovered each node
  std::vector<std::int32_t> queue_;   // BFS scratch
};

}  // namespace ren::flows
