// myRules(): compilation of a controller's forwarding rules from its
// topology view (paper Sections 2.2.2 and 3.3).
//
// Faithful to the paper's kappa-fault-resilient flows over simple paths:
// for every destination d the compiler derives up to kappa+1 pairwise
// edge-disjoint owner->d paths (primary = the "first shortest path" from a
// deterministic lexicographic BFS tree; backups = successive shortest paths
// avoiding already-used edges). The rule corresponding to the k-th
// alternative carries priority n_prt-1-k, so a switch applying the
// highest-priority applicable rule whose out-port is operational realizes
// OpenFlow fast-failover semantics: primary traffic rides shortest paths,
// and a failed link diverts traffic onto the next-priority path at any
// switch the paths share.
//
// Match-space layout per owner c:
//   (src=c,  dest=d) forward rules along every path switch     [outbound]
//   (src=*,  dest=c) reverse rules of the *primary* BFS tree   [inbound]
//   (src=d,  dest=c) reverse rules of backup paths             [inbound]
// The primary reverse rules form a tree (unique predecessor per switch), so
// the wildcard cannot be ambiguous, and it gives every node — even one the
// controller has not fully discovered yet — a default return route, which
// in-band bootstrapping depends on.
//
// Who may relay is read from the view (TopoView::relays(): all but known
// controllers, paper Section 3.3); compile() adds one rule: the owner never
// relays its own flows. Compilations are cached by (TopoView::fingerprint(),
// owner); rule lists are immutable and shared by pointer with in-flight
// messages and switch tables. The map overload of compile() is an adapter
// for the repository benchmark's compile replay; no simulation path calls it.
//
// Fast path (compile): the view is snapshot into a flows::FlatView (CSR over
// compact indices). One full BFS from the owner, expanding relay nodes
// only, yields every primary path as a walk up its tree: the per-destination
// early-exit BFS of the definition assigns exactly the same parents. Backup
// paths are early-exit searches on the same CSR with epoch-stamped visited,
// parent and blocked-edge arrays (both directions of every earlier path edge
// of the destination are blocked). Rule lists are built per compact index
// and then sorted and de-duplicated, as the definition does.
//
// Oracle (compile_oracle): the definition itself — kappa+1 early-exit BFSs
// per destination over std::map parents and a std::set of used edges. It
// stays as the reference the fast path must match byte for byte: the
// differential tests, the legitimacy monitor's paranoid mode and
// bench_table8_scale's compile probe all compare the two.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "flows/graph.hpp"
#include "proto/rule.hpp"
#include "util/types.hpp"

namespace ren::flows {

/// Canonical ordering of per-switch rule lists: (dest, src, -prt). Lookups
/// binary-search the (dest, src) prefix; priority descends within a group.
bool rule_order(const proto::Rule& a, const proto::Rule& b);

/// Everything a controller installs for one topology view.
struct CompiledFlows {
  /// Fingerprint of the view compiled (TopoView::fingerprint()).
  std::uint64_t view_fingerprint = 0;
  /// Rules to install at each switch (sorted by rule_order).
  std::map<NodeId, proto::RuleListPtr> per_switch;
  /// The controller's own ordered first hops toward every destination
  /// (primary path's first, then backups').
  std::map<NodeId, std::vector<NodeId>> first_hops;
};
using CompiledFlowsPtr = std::shared_ptr<const CompiledFlows>;

/// Content equality: fingerprint, first hops and every per-switch rule list
/// compared by value (the lists are shared pointers).
bool identical_flows(const CompiledFlows& a, const CompiledFlows& b);

/// A host-to-host data flow (Section 6.4.3 experiments) compiled by the
/// managing controller: per-switch rules plus the hosts' first hops.
struct DataFlow {
  std::map<NodeId, proto::RuleListPtr> per_switch;
  std::vector<NodeId> first_hops_a;
  std::vector<NodeId> first_hops_b;
};

/// Up to `count` pairwise edge-disjoint s->t paths in `view` whose interior
/// nodes relay (TopoView::relays). Shortest-first, deterministic.
std::vector<std::vector<NodeId>> disjoint_view_paths(const TopoView& view,
                                                     NodeId s, NodeId t,
                                                     int count);

class RuleCompiler {
 public:
  struct Config {
    int kappa = 2;  ///< tolerate up to kappa link failures
  };

  explicit RuleCompiler(Config config) : config_(config) {}

  /// Priorities run 0..nprt; path rules use nprt-1-k for the k-th
  /// alternative (paper: n_prt >= kappa+1).
  [[nodiscard]] Priority nprt() const { return config_.kappa + 2; }
  [[nodiscard]] int kappa() const { return config_.kappa; }

  /// Compile all rules controller `owner` must install given its `view`.
  /// Interior path nodes are the view's relays() nodes other than `owner`.
  /// Reuses this compiler's scratch buffers, so a compiler must not be
  /// shared between threads.
  [[nodiscard]] CompiledFlowsPtr compile(const TopoView& view,
                                         NodeId owner) const;

  /// Adapter for callers holding kinds as a map: an id mapped to true is a
  /// switch, to false a controller, and every other node of `view` is of
  /// unknown kind (whatever `view` says). Compiles a stamped copy of `view`.
  [[nodiscard]] CompiledFlowsPtr compile(
      const TopoView& view, NodeId owner,
      const std::map<NodeId, bool>& is_transit) const;

  /// The from-scratch definition compile() must reproduce byte for byte
  /// (see the file comment). For tests, paranoid mode and benches only.
  [[nodiscard]] CompiledFlowsPtr compile_oracle(const TopoView& view,
                                                NodeId owner) const;

  /// Cached variant keyed by (view.fingerprint(), owner).
  [[nodiscard]] CompiledFlowsPtr compile_cached(const TopoView& view,
                                                NodeId owner);

  /// Compile a bidirectional host<->host flow owned by `owner`. Hosts a/b
  /// attach to switches attach_a/attach_b (hosts are not in the view).
  [[nodiscard]] DataFlow compile_data_flow(const TopoView& view, NodeId owner,
                                           NodeId host_a, NodeId attach_a,
                                           NodeId host_b,
                                           NodeId attach_b) const;

 private:
  Config config_;
  struct CacheEntry {
    std::uint64_t fingerprint = 0;
    NodeId owner = kNoNode;
    CompiledFlowsPtr flows;
  };
  std::vector<CacheEntry> cache_;  // tiny LRU (most recent first)

  // compile() scratch, kept across calls so a recompile allocates only its
  // output.
  struct Scratch {
    FlatView flat;
    std::vector<std::uint8_t> relay;   ///< may relay, per index
    std::vector<std::int32_t> order;   ///< primary tree, BFS order
    std::vector<std::int32_t> tree;    ///< primary tree parents
    std::vector<std::int32_t> path;    ///< current path, owner first
    std::vector<NodeId> hops;          ///< current destination's first hops
    std::vector<proto::RuleList> building;  ///< rules per switch index
  };
  mutable Scratch scratch_;

  void emit_path(int k, NodeId dest) const;
};

}  // namespace ren::flows
