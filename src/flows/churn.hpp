// Deterministic heavy-tailed flow-churn generator: the data-plane workload
// axis (ROADMAP "Million-flow data plane").
//
// The generator models production flow churn against the switch fabric:
// flow arrivals follow a bounded-Pareto (or exponential) interarrival
// process at a configurable mean rate, lifetimes are bounded-Pareto with
// shape alpha (heavy tail: most flows are mice, a few elephants dominate),
// and endpoints are drawn by Zipf popularity over the switch nodes (a few
// hot destinations absorb most flows, which is what makes priority-masked
// LRU vs reject-lowest eviction behave differently under pressure).
//
// Everything is a pure function of (graph, config, seed): one private Rng
// drives all draws in a fixed per-arrival order, so the emitted arrival
// stream is bit-reproducible — the scenario engine drives the generator from
// harness-lane tick events.
//
// The generator also owns the routing of flows: per-destination BFS
// next-hop trees over the switch graph (FlatView::search from the
// destination: the deterministic "first shortest path" tree), cached per
// destination, so the scenario engine can install one exact-match microflow
// entry per hop (switchd::FlowRule) without re-deriving paths.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "flows/graph.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::flows {

/// Interarrival-time distribution of the churn workload.
enum class ChurnDist { Pareto, Poisson };

struct ChurnConfig {
  double rate = 1000.0;            ///< mean flow arrivals per second (> 0)
  Time mean_duration = msec(200);  ///< mean flow lifetime
  double alpha = 1.5;   ///< Pareto shape (> 1); closer to 1 = heavier tail
  double zipf = 1.0;    ///< endpoint popularity skew (0 = uniform)
  int priorities = 4;   ///< flow priorities drawn uniformly from [0, this)
  ChurnDist dist = ChurnDist::Pareto;
};

/// One flow arrival emitted by the generator.
struct FlowArrival {
  std::uint64_t id = 0;  ///< unique per generator, starts at 1
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Time at = 0;
  Time duration = 0;
  Priority prt = 0;
};

class ChurnGenerator {
 public:
  /// `graph` is the switch fabric (node ids = switch NodeIds); `start` is
  /// the simulated time of the first interarrival draw.
  ChurnGenerator(const Graph& graph, ChurnConfig config, std::uint64_t seed,
                 Time start);

  /// Pop every arrival with `at <= until`, in arrival order.
  void advance(Time until, std::vector<FlowArrival>& out);

  /// Deterministic shortest-path next hop from `v` toward `dst` (kNoNode
  /// when unreachable or v == dst). BFS trees are cached per destination.
  [[nodiscard]] NodeId next_hop(NodeId v, NodeId dst);

  /// The hop sequence src, ..., last-before-dst a flow's microflow entries
  /// are installed on (empty when src == dst or dst is unreachable).
  void path_hops(NodeId src, NodeId dst, std::vector<NodeId>& out);

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] const ChurnConfig& config() const { return config_; }

 private:
  [[nodiscard]] Time draw_gap();
  [[nodiscard]] Time draw_duration();
  [[nodiscard]] NodeId draw_endpoint();
  const std::vector<NodeId>& tree_toward(NodeId dst);

  FlatView graph_;
  std::vector<std::uint8_t> relay_;  ///< all ones: every node forwards
  ChurnConfig config_;
  Rng rng_;
  Time next_at_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t arrivals_ = 0;
  std::vector<double> zipf_cdf_;  ///< cumulative endpoint weights, by node id
  /// dst -> next-hop-toward-dst per node (kNoNode = unreachable / is dst).
  std::map<NodeId, std::vector<NodeId>> trees_;
};

}  // namespace ren::flows
