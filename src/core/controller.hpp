// The Renaissance controller: a direct implementation of the paper's
// Algorithm 2 (with the Section 6.2 three-tag evaluation variant and the
// Section 8.1 non-memory-adaptive variant selectable by configuration).
//
// Every task_delay the controller runs one do-forever iteration:
//   1. prune replyDB of unreachable/stale replies              (line 8)
//   2. detect round completion; start a new round/tag          (lines 9-12)
//   3. pick the reference tag                                  (line 13)
//   4. per discovered switch: manager cleanup, stale-rule
//      deletion, rule refresh via myRules()                    (lines 14-18)
//   5. send aggregated command batches + queries to every
//      reachable node                                          (line 19)
// Query replies are handled on arrival with the C-reset capacity rule
// (lines 20-22), and queries from other controllers are answered with the
// local neighborhood (line 23).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/reply_db.hpp"
#include "core/view_cache.hpp"
#include "flows/graph.hpp"
#include "flows/my_rules.hpp"
#include "tags/tag_generator.hpp"
#include "transport/in_band_node.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::core {

struct ControllerStats {
  std::uint64_t iterations = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t deletions_sent = 0;  ///< delMngr + delAllRules commands
  std::uint64_t illegitimate_deletions = 0;  ///< deletions hitting live peers
  std::uint64_t replies_accepted = 0;
  std::uint64_t replies_discarded_tag = 0;
};

class Controller final : public transport::InBandNode {
 public:
  struct Config {
    int kappa = 2;
    Time task_delay = msec(500);     ///< paper Section 6.3 default
    Time detect_interval = msec(100);
    int theta = 10;
    std::size_t max_replies = 1024;  ///< >= 2(N_C+N_S) per the paper
    bool memory_adaptive = true;     ///< false = Section 8.1 variant
    int rule_retention = 2;          ///< 3 = Section 6.2 variant
    /// Differential-test mode: shadow every cached view, every newly
    /// compiled flow set and every planned batch with a from-scratch build
    /// and throw std::logic_error on divergence — batches must compare equal
    /// by value, rule lists by content (slow; tests/CI only).
    bool paranoid = false;
  };

  Controller(NodeId id, Config config);

  // --- Data-plane flow provisioning (Section 6.4.3 experiments) ----------
  struct DataFlowSpec {
    NodeId host_a = kNoNode, attach_a = kNoNode;
    NodeId host_b = kNoNode, attach_b = kNoNode;
  };
  /// Register a host<->host flow that this controller keeps installed (and
  /// re-routes after topology changes) alongside its control-plane rules.
  void register_data_flow(const DataFlowSpec& spec);

  [[nodiscard]] const std::vector<DataFlowSpec>& data_flows() const {
    return data_flows_;
  }

  /// Freeze/unfreeze the do-forever loop (used by the "no recovery"
  /// throughput experiment of Fig. 16).
  void set_frozen(bool frozen) { frozen_ = frozen; }

  // --- Introspection (legitimacy monitor, tests, benches) -----------------
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t c_resets() const { return db_.c_resets(); }
  [[nodiscard]] proto::Tag curr_tag() const { return curr_tag_; }
  [[nodiscard]] const ReplyDb& reply_db() const { return db_; }
  /// The fused topology view G(fusion) as of the last iteration.
  [[nodiscard]] const flows::TopoView& fused_view() const {
    return fusion_view_;
  }
  /// The flows compiled in the last iteration (null before the first).
  [[nodiscard]] flows::CompiledFlowsPtr current_flows() const {
    return current_flows_;
  }
  /// The per-tick view cache (hit/rebuild counters for tests/benches).
  [[nodiscard]] const ViewCache& view_cache() const { return views_; }
  /// The line-19 batch planner (reuse/rotation counters for tests/benches).
  [[nodiscard]] const BatchPlanner& batch_planner() const { return planner_; }

  /// One do-forever body (Algorithm 2, lines 8-19) without the timer
  /// rescheduling or the frozen gate (tests).
  void run_iteration();

  /// Bench hook: called with `true` right before and `false` right after
  /// every *scheduled* do-forever body. Lets a profiler time the real
  /// in-situ iterations instead of injecting extra ones (an extra body
  /// advances round tags and would perturb the protocol under test).
  void set_iteration_probe(std::function<void(bool begin)> probe) {
    iteration_probe_ = std::move(probe);
  }

  /// Bench hook bracketing the line-19 fan-out (batch assembly + transport
  /// submit + session pruning) inside a scheduled iteration.
  void set_fanout_probe(std::function<void(bool begin)> probe) {
    fanout_probe_ = std::move(probe);
  }

  /// Monitor-relevant change epoch: bumps when the fused view, the compiled
  /// flows, the merged rules or the registered data flows change. Steady
  /// iterations that re-derive identical state leave it untouched, which is
  /// what lets the legitimacy monitor skip re-validating this controller.
  [[nodiscard]] std::uint64_t change_epoch() const { return change_epoch_; }
  /// Bumped per register_data_flow (part of the monitor's reference key).
  [[nodiscard]] std::uint64_t data_flow_revision() const {
    return data_flow_revision_;
  }

  /// Install a truth oracle used only for *accounting* illegitimate
  /// deletions (Theorem 1 experiments); never feeds the algorithm.
  void set_liveness_oracle(std::function<bool(NodeId)> is_live_controller) {
    liveness_oracle_ = std::move(is_live_controller);
  }

  /// Transient-fault hook: corrupt replyDB, tags, transport, detector and
  /// compiled state (tests / self-stabilization experiments).
  void corrupt_state(Rng& rng, NodeId node_space);

 private:
  /// Delivered query replies (lines 20-22) and peer query batches (line 23).
  void on_message(NodeId peer, const proto::MessagePtr& message) override;
  /// The compiled first hops toward the packet's destination.
  [[nodiscard]] NodeId rule_hop(const net::Packet& packet) override;
  /// The scheduled do-forever body: frozen-gated, probe-bracketed.
  void run_task() override;

  /// Synchronize the view cache with the current (replyDB, tags, detector).
  void refresh_views();
  /// Bound the transport's session state to `peers` plus the physically
  /// attached neighbors (sorted/deduplicated into keep_scratch_).
  void prune_transport_sessions(const std::vector<NodeId>& peers);
  void prune_reply_db();
  [[nodiscard]] bool round_complete() const;

  [[nodiscard]] proto::RuleListPtr rules_for_switch(NodeId j);
  void rebuild_merged_rules(const flows::TopoView& refer_view);
  void note_deletion(NodeId victim);

  Config config_;
  tags::TagGenerator tags_;
  proto::Tag curr_tag_;
  proto::Tag prev_tag_;
  ReplyDb db_;
  flows::RuleCompiler compiler_;
  ViewCache views_;
  BatchPlanner planner_;

  std::vector<NodeId> keep_scratch_;  ///< sorted retain_only feed

  flows::CompiledFlowsPtr current_flows_;    ///< last compiled control flows
  flows::TopoView fusion_view_;              ///< cached G(fusion)

  std::vector<DataFlowSpec> data_flows_;
  std::uint64_t data_flow_revision_ = 0;
  // Merged (control + data) per-switch rules for the current view.
  std::map<NodeId, proto::RuleListPtr> merged_rules_;
  std::uint64_t merged_fingerprint_ = 0;
  std::uint64_t merged_revision_ = ~0ULL;

  bool frozen_ = false;
  std::uint64_t change_epoch_ = 0;
  ControllerStats stats_;
  std::function<bool(NodeId)> liveness_oracle_;
  std::function<void(bool)> iteration_probe_;
  std::function<void(bool)> fanout_probe_;
};

/// The control rules `control` merged per switch with the rules of every
/// flow in `data_flows`, each compiled by `compiler` for `owner` against the
/// same `view`; every list sorted by flows::rule_order. The one
/// definition of a controller's combined install set: the controller merges
/// on its own view, the legitimacy monitor on the true one.
[[nodiscard]] std::map<NodeId, proto::RuleListPtr> merge_data_flows(
    const std::map<NodeId, proto::RuleListPtr>& control,
    const std::vector<Controller::DataFlowSpec>& data_flows,
    const flows::RuleCompiler& compiler, const flows::TopoView& view,
    NodeId owner);

}  // namespace ren::core
