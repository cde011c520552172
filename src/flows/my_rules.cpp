#include "flows/my_rules.hpp"

#include <algorithm>
#include <deque>

namespace ren::flows {

bool rule_order(const proto::Rule& a, const proto::Rule& b) {
  if (a.dest != b.dest) return a.dest < b.dest;
  if (a.src != b.src) return a.src < b.src;
  return a.prt > b.prt;
}

namespace {

/// Effective transit map over all view nodes: nodes of unknown kind are
/// optimistically treated as switches (the compilation is refreshed once
/// their reply reveals otherwise); `owner` never relays its own flows.
std::map<NodeId, bool> effective_transit(
    const TopoView& view, NodeId owner,
    const std::map<NodeId, bool>& is_transit) {
  std::map<NodeId, bool> transit;
  for (const auto& [n, _] : view.adj()) {
    if (n == owner) {
      transit[n] = false;
      continue;
    }
    auto it = is_transit.find(n);
    transit[n] = (it == is_transit.end()) ? true : it->second;
  }
  return transit;
}

/// Calls f(n, transit) for every view node in id order, with the flag
/// effective_transit() would store, without materializing the map.
template <class F>
void for_each_effective_transit(const TopoView& view, NodeId owner,
                                const std::map<NodeId, bool>& is_transit,
                                F&& f) {
  auto it = is_transit.begin();
  for (const auto& [n, _] : view.adj()) {
    while (it != is_transit.end() && it->first < n) ++it;
    const bool known = it != is_transit.end() && it->first == n;
    f(n, n != owner && (!known || it->second));
  }
}

std::uint64_t mix_transit(std::uint64_t h, NodeId n, bool t) {
  h ^= (static_cast<std::uint64_t>(n) * 2 + (t ? 1 : 0)) +
       0x9e3779b97f4a7c15ULL;
  return h * 1099511628211ULL;
}

/// combined_fingerprint(view, effective_transit(view, owner, is_transit)).
std::uint64_t effective_fingerprint(const TopoView& view, NodeId owner,
                                    const std::map<NodeId, bool>& is_transit) {
  std::uint64_t h = view.fingerprint();
  for_each_effective_transit(view, owner, is_transit, [&h](NodeId n, bool t) {
    h = mix_transit(h, n, t);
  });
  return h;
}

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

/// Shortest s->t path whose interior nodes are transit, avoiding edges in
/// `used`. Deterministic (neighbors explored in sorted order). Empty when
/// no such path exists.
std::vector<NodeId> bfs_path(const TopoView& view, NodeId s, NodeId t,
                             const std::map<NodeId, bool>& transit,
                             const EdgeSet& used) {
  std::map<NodeId, NodeId> parent;
  parent[s] = s;
  std::deque<NodeId> q{s};
  while (!q.empty() && parent.count(t) == 0) {
    const NodeId u = q.front();
    q.pop_front();
    if (u != s) {
      auto it = transit.find(u);
      if (it == transit.end() || !it->second) continue;  // endpoint only
    }
    const auto* nbrs = view.neighbors(u);
    if (nbrs == nullptr) continue;
    for (NodeId v : *nbrs) {
      if (parent.count(v) != 0) continue;
      if (used.count({u, v}) != 0) continue;
      parent[v] = u;
      q.push_back(v);
    }
  }
  if (parent.count(t) == 0) return {};
  std::vector<NodeId> path;
  for (NodeId v = t; v != s; v = parent[v]) path.push_back(v);
  path.push_back(s);
  std::reverse(path.begin(), path.end());
  return path;
}

void mark_used(EdgeSet& used, const std::vector<NodeId>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    used.insert({path[i], path[i + 1]});
    used.insert({path[i + 1], path[i]});
  }
}

}  // namespace

std::vector<std::vector<NodeId>> disjoint_view_paths(
    const TopoView& view, NodeId s, NodeId t, int count,
    const std::map<NodeId, bool>& transit) {
  std::vector<std::vector<NodeId>> paths;
  EdgeSet used;
  for (int k = 0; k < count; ++k) {
    auto p = bfs_path(view, s, t, transit, used);
    if (p.empty()) break;
    mark_used(used, p);
    paths.push_back(std::move(p));
  }
  return paths;
}

std::uint64_t RuleCompiler::combined_fingerprint(
    const TopoView& view, const std::map<NodeId, bool>& transit) {
  std::uint64_t h = view.fingerprint();
  for (const auto& [n, t] : transit) h = mix_transit(h, n, t);
  return h;
}

bool identical_flows(const CompiledFlows& a, const CompiledFlows& b) {
  return a.view_fingerprint == b.view_fingerprint &&
         a.first_hops == b.first_hops &&
         std::equal(a.per_switch.begin(), a.per_switch.end(),
                    b.per_switch.begin(), b.per_switch.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && *x.second == *y.second;
                    });
}

CompiledFlowsPtr RuleCompiler::compile(
    const TopoView& view, NodeId owner,
    const std::map<NodeId, bool>& is_transit) const {
  auto flows = std::make_shared<CompiledFlows>();
  Scratch& s = scratch_;
  FlatView& g = s.flat;
  g.assign(view);
  const auto n = static_cast<std::size_t>(g.n());
  flows->view_fingerprint = effective_fingerprint(view, owner, is_transit);
  s.relay.resize(n);
  std::size_t i = 0;  // FlatView indices follow the view's id order
  for_each_effective_transit(view, owner, is_transit,
                             [&](NodeId, bool t) { s.relay[i++] = t ? 1 : 0; });
  const int root = g.index_of(owner);
  if (root < 0 || config_.kappa < 0) return flows;

  // Primary tree: every k=0 path is a walk up it.
  g.search(root, -1, s.relay);
  s.order = g.order();
  s.tree.resize(n);
  for (const std::int32_t v : s.order) {
    s.tree[static_cast<std::size_t>(v)] = g.parent(v);
  }
  s.building.resize(n);
  // Loads the root -> d path into s.path by walking `up` from d.
  auto load_path = [&s, root](std::int32_t d, auto&& up) {
    s.path.clear();
    for (std::int32_t v = d; v != root; v = up(v)) s.path.push_back(v);
    s.path.push_back(root);
    std::reverse(s.path.begin(), s.path.end());
  };

  for (const std::int32_t d : s.order) {
    if (d == root) continue;
    const NodeId dest = g.id_at(d);
    s.hops.clear();
    load_path(d, [&s](std::int32_t v) {
      return s.tree[static_cast<std::size_t>(v)];
    });
    emit_path(0, dest);

    g.clear_blocked();
    for (int k = 1; k <= config_.kappa; ++k) {
      for (std::size_t j = 0; j + 1 < s.path.size(); ++j) {
        g.block_both(s.path[j], s.path[j + 1]);
      }
      if (!g.search(root, d, s.relay)) break;
      load_path(d, [&g](std::int32_t v) { return g.parent(v); });
      emit_path(k, dest);
    }
    flows->first_hops.emplace(dest, s.hops);
  }

  for (std::size_t v = 0; v < n; ++v) {
    proto::RuleList& rules = s.building[v];
    if (rules.empty()) continue;
    std::sort(rules.begin(), rules.end(), rule_order);
    rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
    flows->per_switch.emplace_hint(
        flows->per_switch.end(), g.id_at(static_cast<int>(v)),
        std::make_shared<const proto::RuleList>(std::move(rules)));
  }
  return flows;
}

/// Rules and first hop of the k-th path in `scratch_.path` toward `dest`,
/// exactly as compile_oracle() emits them.
void RuleCompiler::emit_path(int k, NodeId dest) const {
  Scratch& s = scratch_;
  const FlatView& g = s.flat;
  const std::vector<std::int32_t>& path = s.path;
  const NodeId owner = g.id_at(path.front());
  const Priority prt = nprt() - 1 - static_cast<Priority>(k);
  const NodeId hop = g.id_at(path[1]);
  if (std::find(s.hops.begin(), s.hops.end(), hop) == s.hops.end()) {
    s.hops.push_back(hop);
  }
  // Primary reverse rules use the wildcard source, backups the endpoint.
  const NodeId back_src = k == 0 ? kNoNode : dest;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const NodeId sw = g.id_at(path[i]);
    auto& rules = s.building[static_cast<std::size_t>(path[i])];
    rules.push_back(
        proto::Rule{owner, sw, owner, dest, prt, g.id_at(path[i + 1])});
    rules.push_back(
        proto::Rule{owner, sw, back_src, owner, prt, g.id_at(path[i - 1])});
  }
  const std::int32_t d = path.back();
  if (s.relay[static_cast<std::size_t>(d)] != 0) {
    s.building[static_cast<std::size_t>(d)].push_back(proto::Rule{
        owner, dest, back_src, owner, prt, g.id_at(path[path.size() - 2])});
  }
}

CompiledFlowsPtr RuleCompiler::compile_oracle(
    const TopoView& view, NodeId owner,
    const std::map<NodeId, bool>& is_transit) const {
  auto flows = std::make_shared<CompiledFlows>();
  const auto transit = effective_transit(view, owner, is_transit);
  flows->view_fingerprint = combined_fingerprint(view, transit);

  const std::vector<NodeId> nodes = view.reachable_set(owner);
  std::map<NodeId, proto::RuleList> building;

  for (NodeId d : nodes) {
    if (d == owner) continue;
    const auto paths =
        disjoint_view_paths(view, owner, d, config_.kappa + 1, transit);
    std::vector<NodeId>& fh = flows->first_hops[d];
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const auto& path = paths[k];
      const Priority prt = nprt() - 1 - static_cast<Priority>(k);
      if (path.size() >= 2 &&
          std::find(fh.begin(), fh.end(), path[1]) == fh.end()) {
        fh.push_back(path[1]);
      }
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const NodeId sw = path[i];
        // Outbound: owner -> d along this path.
        building[sw].push_back(
            proto::Rule{owner, sw, owner, d, prt, path[i + 1]});
        // Inbound: primary reverse rules form the BFS tree and use a
        // wildcard source (default return route toward the controller);
        // backup reverse rules are exact-matched on the remote endpoint to
        // stay unambiguous across destinations.
        const NodeId back = path[i - 1];
        if (k == 0) {
          building[sw].push_back(
              proto::Rule{owner, sw, kNoNode, owner, prt, back});
        } else {
          building[sw].push_back(proto::Rule{owner, sw, d, owner, prt, back});
        }
      }
      // The terminal needs the inbound direction too when it is a switch:
      // its replies to the controller ride the reverse of its own flow.
      if (path.size() >= 2) {
        auto t_it = transit.find(d);
        if (t_it != transit.end() && t_it->second) {
          const NodeId back = path[path.size() - 2];
          if (k == 0) {
            building[d].push_back(
                proto::Rule{owner, d, kNoNode, owner, prt, back});
          } else {
            building[d].push_back(proto::Rule{owner, d, d, owner, prt, back});
          }
        }
      }
    }
    if (fh.empty()) flows->first_hops.erase(d);
  }

  for (auto& [sid, rules] : building) {
    std::sort(rules.begin(), rules.end(), rule_order);
    // The wildcard reverse rules of the primary tree are emitted once per
    // destination whose path crosses this switch; collapse duplicates.
    rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
    flows->per_switch[sid] =
        std::make_shared<const proto::RuleList>(std::move(rules));
  }
  return flows;
}

CompiledFlowsPtr RuleCompiler::compile_cached(
    const TopoView& view, NodeId owner,
    const std::map<NodeId, bool>& is_transit) {
  const std::uint64_t fp = effective_fingerprint(view, owner, is_transit);
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].fingerprint == fp && cache_[i].owner == owner) {
      CacheEntry hit = cache_[i];
      cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(i));
      cache_.insert(cache_.begin(), hit);
      return cache_.front().flows;
    }
  }
  CacheEntry e;
  e.fingerprint = fp;
  e.owner = owner;
  e.flows = compile(view, owner, is_transit);
  cache_.insert(cache_.begin(), std::move(e));
  constexpr std::size_t kCacheSize = 8;
  if (cache_.size() > kCacheSize) cache_.resize(kCacheSize);
  return cache_.front().flows;
}

DataFlow RuleCompiler::compile_data_flow(
    const TopoView& view, NodeId owner, NodeId host_a, NodeId attach_a,
    NodeId host_b, NodeId attach_b,
    const std::map<NodeId, bool>& is_transit) const {
  DataFlow flow;
  std::map<NodeId, proto::RuleList> building;
  const auto transit = effective_transit(view, owner, is_transit);

  // Paths between the attachment switches; both endpoints relay here, so
  // mark them transit for the search. One pair and kappa+1 paths, off the
  // hot path: the oracle helper is fast enough, no second fast path.
  auto search_transit = transit;
  search_transit[attach_a] = true;
  search_transit[attach_b] = true;
  const auto paths = disjoint_view_paths(view, attach_a, attach_b,
                                         config_.kappa + 1, search_transit);

  for (std::size_t k = 0; k < paths.size(); ++k) {
    const auto& path = paths[k];
    const Priority prt = nprt() - 1 - static_cast<Priority>(k);
    for (std::size_t i = 0; i < path.size(); ++i) {
      const NodeId sw = path[i];
      if (i + 1 < path.size()) {  // a -> b direction
        building[sw].push_back(
            proto::Rule{owner, sw, host_a, host_b, prt, path[i + 1]});
      }
      if (i > 0) {  // b -> a direction
        building[sw].push_back(
            proto::Rule{owner, sw, host_b, host_a, prt, path[i - 1]});
      }
    }
  }
  // Delivery hops at the attachment switches (host-facing ports).
  building[attach_b].push_back(proto::Rule{
      owner, attach_b, host_a, host_b, static_cast<Priority>(nprt()), host_b});
  building[attach_a].push_back(proto::Rule{
      owner, attach_a, host_b, host_a, static_cast<Priority>(nprt()), host_a});

  for (auto& [sid, rules] : building) {
    std::sort(rules.begin(), rules.end(), rule_order);
    rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
    flow.per_switch[sid] =
        std::make_shared<const proto::RuleList>(std::move(rules));
  }
  flow.first_hops_a = {attach_a};
  flow.first_hops_b = {attach_b};
  return flow;
}

}  // namespace ren::flows
