#include "flows/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ren::flows {

namespace {

/// Bounded Pareto draw with the given mean and shape: scale x_m chosen so
/// the unbounded mean is `mean` (alpha > 1), capped at 10^4 x_m so a single
/// elephant cannot stall the workload window. u must be in (0, 1].
double bounded_pareto(double mean, double alpha, double u) {
  const double xm = mean * (alpha - 1.0) / alpha;
  return std::min(xm / std::pow(u, 1.0 / alpha), xm * 1e4);
}

}  // namespace

ChurnGenerator::ChurnGenerator(const Graph& graph, ChurnConfig config,
                               std::uint64_t seed, Time start)
    : relay_(static_cast<std::size_t>(graph.n()), 1),
      config_(config),
      rng_(seed) {
  graph_.assign(graph);
  if (!(config_.rate > 0)) {
    throw std::invalid_argument("churn: rate must be > 0");
  }
  if (!(config_.alpha > 1.0)) {
    throw std::invalid_argument("churn: alpha must be > 1");
  }
  if (config_.zipf < 0) {
    throw std::invalid_argument("churn: zipf must be >= 0");
  }
  if (config_.priorities < 1) {
    throw std::invalid_argument("churn: priorities must be >= 1");
  }
  if (config_.mean_duration <= 0) {
    throw std::invalid_argument("churn: mean_duration must be > 0");
  }
  if (graph_.n() < 2) {
    throw std::invalid_argument("churn: graph needs >= 2 nodes");
  }
  // Zipf popularity by node id: weight(i) = 1 / (i+1)^zipf. Precomputed
  // cumulative weights turn every endpoint draw into one binary search.
  zipf_cdf_.resize(static_cast<std::size_t>(graph_.n()));
  double acc = 0;
  for (int i = 0; i < graph_.n(); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), config_.zipf);
    zipf_cdf_[static_cast<std::size_t>(i)] = acc;
  }
  next_at_ = start + draw_gap();
}

Time ChurnGenerator::draw_gap() {
  // (0, 1]: keep Pareto's pow and Poisson's log away from u == 0.
  const double u = 1.0 - rng_.next_double();
  const double mean = 1.0 / config_.rate;
  const double gap = config_.dist == ChurnDist::Pareto
                         ? bounded_pareto(mean, config_.alpha, u)
                         : -std::log(u) * mean;
  return static_cast<Time>(gap * 1e6);
}

Time ChurnGenerator::draw_duration() {
  const double u = 1.0 - rng_.next_double();
  const double d =
      bounded_pareto(to_seconds(config_.mean_duration), config_.alpha, u);
  return std::max<Time>(1, static_cast<Time>(d * 1e6));
}

NodeId ChurnGenerator::draw_endpoint() {
  const double u = rng_.next_double() * zipf_cdf_.back();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(),
                               static_cast<std::ptrdiff_t>(zipf_cdf_.size()) - 1));
  return static_cast<NodeId>(idx);
}

void ChurnGenerator::advance(Time until, std::vector<FlowArrival>& out) {
  while (next_at_ <= until) {
    FlowArrival a;
    a.id = next_id_++;
    a.at = next_at_;
    a.duration = draw_duration();
    a.src = draw_endpoint();
    // Re-draw the destination until it differs from the source; bounded in
    // expectation (the hottest node's weight share is < 1 for n >= 2).
    do {
      a.dst = draw_endpoint();
    } while (a.dst == a.src);
    a.prt = static_cast<Priority>(
        rng_.next_below(static_cast<std::uint64_t>(config_.priorities)));
    out.push_back(a);
    ++arrivals_;
    next_at_ += draw_gap();
  }
}

const std::vector<NodeId>& ChurnGenerator::tree_toward(NodeId dst) {
  auto it = trees_.find(dst);
  if (it != trees_.end()) return it->second;
  // Search from dst: every node's parent in the tree is its first
  // shortest-path neighbor toward dst.
  std::vector<NodeId> next(static_cast<std::size_t>(graph_.n()), kNoNode);
  graph_.search(dst, -1, relay_);
  for (const std::int32_t v : graph_.order()) {
    if (v != dst) next[static_cast<std::size_t>(v)] = graph_.parent(v);
  }
  return trees_.emplace(dst, std::move(next)).first->second;
}

NodeId ChurnGenerator::next_hop(NodeId v, NodeId dst) {
  if (v == dst || v < 0 || v >= graph_.n()) return kNoNode;
  return tree_toward(dst)[static_cast<std::size_t>(v)];
}

void ChurnGenerator::path_hops(NodeId src, NodeId dst,
                               std::vector<NodeId>& out) {
  out.clear();
  NodeId v = src;
  while (v != dst && v != kNoNode) {
    out.push_back(v);
    v = next_hop(v, dst);
  }
  if (v == kNoNode) out.clear();  // unreachable: install nothing
}

}  // namespace ren::flows
