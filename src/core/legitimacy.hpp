// Legitimate-state checker (paper Definition 1).
//
// A system state is legitimate when, for every live controller p_i and node
// p_k:
//  1. p_i's accumulated topology view matches the real connected topology Gc
//     (replyDB correctness),
//  2. every switch is managed by exactly the live controllers,
//  3. the installed rules encode the kappa-fault-resilient flows that
//     myRules() derives from the real topology (checked as content equality
//     against a reference compilation, plus an actual rule-walk showing that
//     every controller can exchange packets with every node),
//  4. (transport/round-sync legitimacy is implied by 1-3 observably: rounds
//     keep completing, which the harness exercises by running on).
//
// The monitor is a *measurement* device: it reads global simulator truth
// that no protocol participant has access to, and is used by the harness to
// timestamp convergence (bootstrap & recovery experiments).
//
// Incremental checking: every layer of the stack carries a monotonic change
// epoch (net::Network for topology + liveness, core::Controller for its
// fused view / compiled flows, switchd for manager sets + rule content).
// The monitor sums them into stack_epoch(); an unchanged sum means nothing
// the verdict depends on has changed, so check() replays the cached verdict
// in O(controllers + switches) pointer reads. When something did change,
// per-item memos (per-controller view, per-switch managers/owners, per
// (switch, controller) rule list, cached ground truth and reference
// compilations) confine the work to the changed slice. Config::paranoid
// shadows every incremental verdict with a fresh full evaluation, and every
// reference compilation with RuleCompiler::compile_oracle, and throws on
// divergence — the differential harness used by tests and CI.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "flows/graph.hpp"
#include "flows/my_rules.hpp"
#include "net/simulator.hpp"
#include "switchd/abstract_switch.hpp"

namespace ren::core {

class LegitimacyMonitor {
 public:
  struct Config {
    int kappa = 2;
    /// Differential-test mode: run the full check alongside the incremental
    /// one on every sample, check each reference compilation against the
    /// compiler's oracle, and throw std::logic_error on any divergence.
    bool paranoid = false;
  };

  LegitimacyMonitor(net::Simulator& sim, std::vector<Controller*> controllers,
                    std::vector<switchd::AbstractSwitch*> switches,
                    Config config);

  struct Status {
    bool legitimate = false;
    std::string reason;  ///< first failed condition, empty when legitimate
  };

  /// Work counters (what the incremental machinery actually had to do).
  struct Stats {
    std::uint64_t checks = 0;             ///< check() calls
    std::uint64_t short_circuits = 0;     ///< verdicts replayed, epoch unchanged
    std::uint64_t full_evaluations = 0;   ///< non-short-circuited evaluations
    std::uint64_t truth_rebuilds = 0;     ///< true_view() recomputations
    std::uint64_t view_compares = 0;      ///< controller-view equality checks
    std::uint64_t manager_checks = 0;     ///< per-switch manager validations
    std::uint64_t reference_compiles = 0; ///< reference (re)compilations
    std::uint64_t rule_compares = 0;      ///< deep rule-list content compares
    std::uint64_t walk_sweeps = 0;        ///< full rule-walk sweeps
    std::uint64_t paranoid_shadows = 0;   ///< differential full checks run
  };

  /// Evaluate Definition 1 against the current global state, incrementally
  /// (throws std::logic_error on a paranoid divergence).
  [[nodiscard]] Status check();

  /// Fresh, memo-free evaluation of Definition 1 — the ground truth the
  /// paranoid mode compares against, and the baseline the benches time.
  [[nodiscard]] Status check_full();

  /// Sum of every tracked change epoch below the monitor. Strictly
  /// increases whenever any tracked state mutates; an unchanged value
  /// guarantees an unchanged verdict. Harnesses use it to gate sampling.
  [[nodiscard]] std::uint64_t stack_epoch() const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The real control-plane topology (live controllers + switches, links in
  /// Gc). Hosts are not part of the control plane. Cached per topology
  /// epoch; the reference is valid until the next topology change.
  [[nodiscard]] const flows::TopoView& true_view() const;

  /// The largest kappa the *current* real fabric could support:
  /// lambda(Gc) - 1, since a kappa-fault-resilient flow needs kappa+1
  /// edge-disjoint paths. Cached per topology epoch, so sampling an
  /// unchanged fabric is O(1) and a changed fabric pays one
  /// Graph::edge_connectivity() over the compacted true view (sparse
  /// max-flow: no n x n residual exists anywhere in this path).
  /// Degradation diagnostics — e.g. the B4 cascading-failure investigation
  /// — compare it against Config::kappa.
  [[nodiscard]] int achievable_kappa();

  [[nodiscard]] std::vector<Controller*> live_controllers() const;
  [[nodiscard]] std::vector<switchd::AbstractSwitch*> live_switches() const;

 private:
  /// `fresh` disables every cross-sample memo (the full-check path).
  [[nodiscard]] Status evaluate(const flows::TopoView& truth, bool fresh);
  [[nodiscard]] Status check_views(const flows::TopoView& truth, bool fresh);
  [[nodiscard]] Status check_managers(bool fresh);
  [[nodiscard]] Status check_rules(const flows::TopoView& truth, bool fresh);
  [[nodiscard]] Status check_walks(const flows::TopoView& truth, bool fresh);

  /// Ids of the live controllers and switches (the nodes of Gc).
  [[nodiscard]] std::vector<NodeId> live_ids() const;
  /// FNV hash of the live controller id set (memo key component).
  [[nodiscard]] std::uint64_t live_signature() const;
  /// Epoch over everything rule walks depend on: topology + controller
  /// flows + rule content (manager churn excluded — walks never read it).
  [[nodiscard]] std::uint64_t walk_epoch() const;
  /// The reference per-switch rule lists controller `c` must have installed
  /// given `truth` (control flows merged with its registered data flows).
  [[nodiscard]] const std::map<NodeId, proto::RuleListPtr>& reference_rules(
      Controller* c, const flows::TopoView& truth,
      const std::map<NodeId, bool>& transit, bool fresh);

  net::Simulator& sim_;
  std::vector<Controller*> controllers_;
  std::vector<switchd::AbstractSwitch*> switches_;
  Config config_;
  flows::RuleCompiler compiler_;
  mutable Stats stats_;  ///< true_view() is const but counts rebuilds

  // --- Cross-sample incremental state --------------------------------------
  // Global verdict cache: valid while stack_epoch() is unchanged.
  bool verdict_valid_ = false;
  std::uint64_t verdict_epoch_ = 0;
  Status verdict_;

  // Ground truth cached per topology epoch (mutable: true_view() is const).
  mutable bool truth_valid_ = false;
  mutable std::uint64_t truth_epoch_ = 0;
  mutable flows::TopoView truth_;

  // lambda(Gc) - 1 cached per topology epoch (achievable_kappa).
  bool kappa_valid_ = false;
  std::uint64_t kappa_epoch_ = 0;
  int achievable_kappa_ = 0;

  // cid -> (controller epoch, topology epoch) of the last passing compare.
  std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> views_ok_;
  // sid -> (manager epoch, live signature) of the last passing check.
  std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> managers_ok_;
  // sid -> (rule epoch, live signature) of the last passing owners check.
  std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> owners_ok_;
  // Per-controller reference compilation keyed on (truth fingerprint,
  // data-flow revision); holds the merged per-switch lists.
  struct ReferenceCache {
    std::uint64_t truth_fingerprint = 0;
    std::uint64_t data_flow_revision = 0;
    std::map<NodeId, proto::RuleListPtr> per_switch;
  };
  std::map<NodeId, ReferenceCache> reference_;
  // (switch, cid) -> (installed list, reference list) verified equal. Both
  // pointers are pinned so allocator reuse can never alias a stale entry;
  // keying on the reference too invalidates the memo when the truth moved
  // even though the switch still holds its old (now stale) rules.
  std::map<std::pair<NodeId, NodeId>,
           std::pair<proto::RuleListPtr, proto::RuleListPtr>>
      verified_;
  // Rule-walk memo: valid while walk_epoch() is unchanged.
  bool walk_ok_valid_ = false;
  std::uint64_t walk_ok_epoch_ = 0;
};

}  // namespace ren::core
