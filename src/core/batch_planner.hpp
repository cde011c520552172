// Per-peer command-batch planning for the Algorithm 2 line-19 fan-out.
//
// Every task_delay each controller sends one aggregated CommandBatch to
// every node reachable in G(fusion). The seed rebuilt each batch from
// scratch per tick — four std::sets per replied switch for the lines 14-17
// manager/rule eviction math, a fresh std::vector<Command>, and a by-value
// proto::Message copy into the transport — even when nothing had changed
// since the previous round. The paper only requires that the *newest state*
// supersede the in-flight message, not that it be rebuilt.
//
// The BatchPlanner assembles each per-peer batch at most once per
// input-state change:
//
//  * Every batch is summarized by a proto::BatchKey — round tag, retention,
//    per-owner eviction digest, and the *identity* of the (immutable,
//    shared) rule list — so "did this peer's batch change?" is an O(victims)
//    tag/pointer compare, never a deep command compare.
//  * Key unchanged: the cached proto::MessagePtr is resubmitted verbatim;
//    the transport recognizes the identical pointer and refreshes its
//    supersede slot without a new label or allocation.
//  * Only the round tag flipped (the steady-state norm — converged rounds
//    complete every tick): the cached message object is *rotated*, i.e.
//    retagged in place when uniquely owned, instead of rebuilt.
//  * Anything else: the batch is materialized from its key, once. Every
//    peer owns its message object: sharing one across peers with equal
//    keys would save well under 1% of builds and force a clone at every
//    rotation of a message another peer's transport still holds.
//
// Config::paranoid mirrors the view-cache differential pattern: every
// planned batch is shadowed by a from-scratch build using the seed's
// std::set-based preparation, and any divergence in the canonical byte
// encoding (proto::debug_encode) or in the key's command count throws
// std::logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/reply_db.hpp"
#include "core/view_cache.hpp"
#include "proto/messages.hpp"
#include "util/types.hpp"

namespace ren::core {

struct PlannerStats {
  std::uint64_t planned = 0;   ///< batches handed to the transport
  std::uint64_t reused = 0;    ///< identical key: same MessagePtr resubmitted
  std::uint64_t rotated = 0;   ///< only the tag flipped: retagged in place
  std::uint64_t cloned = 0;    ///< tag flip on a still-referenced message
  std::uint64_t rebuilt = 0;   ///< full command-list materializations
  std::uint64_t gate_rotations = 0;  ///< whole fan-outs served by the gate
  std::uint64_t full_plans = 0;      ///< fan-outs that re-derived every key
  std::uint64_t paranoid_checks = 0;  ///< differential shadows run
};

class BatchPlanner {
 public:
  struct Config {
    int retention = 2;
    bool memory_adaptive = true;
    /// Differential-test mode: shadow every planned batch with a
    /// from-scratch build and throw std::logic_error unless the canonical
    /// encodings are byte-equal (slow; tests/CI only).
    bool paranoid = false;
  };
  struct Hooks {
    /// myRules() for switch j under the current reference view.
    std::function<proto::RuleListPtr(NodeId)> rules_for;
    /// Deletion accounting (Theorem 1 experiments); called once per victim
    /// of every batch handed to `send`.
    std::function<void(NodeId victim)> note_deletion;
    /// Submit one planned batch. `commands` is the logical command count of
    /// the batch (the Fig. 9 accounting), identical whether the message was
    /// reused, rotated or rebuilt.
    std::function<void(NodeId peer, proto::MessagePtr message,
                       std::size_t commands)>
        send;
  };

  BatchPlanner(NodeId self, Config config, Hooks hooks);

  /// Algorithm 2 lines 14-19 for one tick: prepare the per-switch eviction
  /// and rule-refresh commands against `refer`, extend unknown fusion-
  /// reachable switches by-neighbor, and send one batch per reachable peer
  /// (query-only to controllers) — reusing every batch whose key did not
  /// change. Replied switches outside the fan-out get no batch, so their
  /// preparation is skipped.
  ///
  /// `flows_fingerprint` and `data_flow_revision` identify the output of
  /// the caller's rules_for hook (the compiled control flows plus any
  /// registered data flows): together with the three views' build_ids and
  /// the replyDB's management_revision they form the fan-out *gate* — when
  /// none of them moved since the previous tick, every per-peer key is
  /// unchanged up to the round tag, and the whole fan-out collapses to
  /// rotating the cached batches (or resubmitting them verbatim when the
  /// tag did not move either).
  void plan_fanout(const ReplyDb& db, const ResView& refer,
                   const ResView& res_prev, const ResView& fusion,
                   proto::Tag curr_tag, bool new_round,
                   std::uint64_t flows_fingerprint,
                   std::uint64_t data_flow_revision);

  /// The fan-out recipients of the last plan_fanout, sorted ascending (the
  /// controller's transport retain_only feed).
  [[nodiscard]] const std::vector<NodeId>& last_peers() const { return peers_; }

  /// True when the last plan_fanout was served entirely by the gate: same
  /// recipients, same session keep-set — the caller may skip its transport
  /// pruning for the tick.
  [[nodiscard]] bool last_was_rotation() const { return last_was_rotation_; }

  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

  /// Drop every cached batch (e.g. after state corruption: the cached
  /// messages may describe tampered state their keys no longer witness).
  void invalidate() {
    entries_.clear();
    planned_entries_.clear();
    peers_.clear();
    gate_.valid = false;
  }

 private:
  struct Entry {
    proto::BatchKey key;
    /// Cached batch; non-const so a uniquely-owned message can be retagged
    /// in place on round flips. Handed out as proto::MessagePtr.
    std::shared_ptr<proto::Message> msg;
    std::uint64_t tick = 0;  ///< last plan_fanout that planned this peer
  };

  /// Everything a full plan read, beyond the round tag. Equality means the
  /// next tick's keys are key.same_except_tag-identical for every peer.
  struct Gate {
    bool valid = false;
    std::uint64_t refer_build = 0;
    std::uint64_t prev_build = 0;
    std::uint64_t fusion_build = 0;
    std::uint64_t mgmt_revision = 0;
    std::uint64_t flows_fingerprint = 0;
    std::uint64_t data_flow_revision = 0;
    bool new_round = false;
    proto::Tag tag;  ///< tag of the cached batches (not part of the gate)
  };

  /// Lines 15-17: the sorted eviction victims for one switch reply; calls
  /// note_deletion per victim (every caller sends the batch).
  void compute_victims(const proto::QueryReply& m, bool new_round,
                       const ResView& res_prev, std::vector<NodeId>& victims);
  /// Move a cached message onto round `tag`: retag it in place, or a clone
  /// of it when it is still referenced.
  void rotate(std::shared_ptr<proto::Message>& msg, proto::Tag tag);
  /// Resolve `key` to a message: reuse, rotate, or rebuild.
  std::shared_ptr<proto::Message> materialize(Entry& entry,
                                              proto::BatchKey&& key);
  /// Gate hit: re-send every cached batch under `tag` without re-deriving a
  /// single key (retag in place / resubmit verbatim), counting each batch's
  /// deletions.
  void rotate_fanout(proto::Tag tag);
  void check_paranoid(const ReplyDb& db, const ResView& refer,
                      const ResView& res_prev, const ResView& fusion,
                      proto::Tag curr_tag, bool new_round);

  NodeId self_;
  Config config_;
  Hooks hooks_;
  std::unordered_map<NodeId, Entry> entries_;
  std::uint64_t tick_ = 0;
  Gate gate_;
  bool last_was_rotation_ = false;
  PlannerStats stats_;

  // Per-tick scratch, cleared not shrunk.
  std::vector<NodeId> peers_;
  /// entries_ nodes in peers_ order from the last full plan (unordered_map
  /// node addresses are stable), so a gate rotation walks a flat array.
  std::vector<Entry*> planned_entries_;
  std::vector<NodeId> owners_scratch_;
  std::vector<NodeId> managers_scratch_;
  std::vector<NodeId> victims_scratch_;
};

}  // namespace ren::core
