// One cached view construction per controller tick.
//
// Algorithm 2 consumes three directed topology views per do-forever
// iteration — res(currTag), res(prevTag) and their fusion — and the seed
// rebuilt them from the replyDB at every consumer: twice in the prune step,
// once in the round-completion test, and three more times for reference
// selection, six-plus std::map/std::set constructions plus a BFS per use,
// every task_delay, per controller. The ViewCache materializes the three
// views (and their reachability from the owning controller) exactly once
// per *state*, keyed on everything a build reads:
//
//   (ReplyDb::revision(), currTag, prevTag, ThetaDetector::liveness_epoch())
//
// refresh() is O(1) while the key is unchanged — steady-state ticks where no
// new reply content arrived reuse all three views untouched. A clean round
// flip (prev' == curr, replyDB untouched) takes the *rotation* fast path:
// the curr slot is moved into the prev slot wholesale, the new res(curr')
// is just the synthesized self record (no replies carry a brand-new tag),
// and the fusion aliases the prev slot — by the fusion definition, with no
// curr-tagged entries every non-shadowed prev entry is included, so
// G(fusion) == G(res(prev')) exactly.
//
// Reachability is precomputed per view on an index-mapped flat adjacency
// (flows::FlatView): one integer BFS per rebuild with an epoch-stamped
// visited array that then answers membership in O(1), replacing the
// per-call std::set BFS plus linear reachable-set scans of the seed. All
// scratch (flat CSR arrays, BFS queue, visited stamps) lives in the three
// long-lived slots, so a steady-state tick allocates nothing here.
//
// Controller::Config::paranoid mirrors the legitimacy monitor's
// differential mode: every refresh() outcome (hit, rotation or rebuild) is
// shadowed by from-scratch builds — with reachability recomputed through
// the *independent* TopoView::reachable_set() implementation — and any
// divergence throws std::logic_error.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/reply_db.hpp"
#include "detect/theta_detector.hpp"
#include "flows/graph.hpp"
#include "proto/tag.hpp"
#include "util/types.hpp"

namespace ren::core {

/// A topology view materialized from replyDB entries with one tag (or the
/// curr/prev fusion), plus its precomputed reachability from the owner.
struct ResView {
  flows::TopoView view;
  std::map<NodeId, bool> transit;  ///< id -> is-switch (may relay)
  std::set<NodeId> reply_ids;      ///< ids that actually replied
  flows::FlatView flat;            ///< index-mapped snapshot of `view`
  std::vector<NodeId> reach;       ///< reachable from the owner, BFS order

  /// Which replyDB entry subset this view was built over. The replyDB is
  /// keyed by node id, so a tag class is just a subset of entries — and a
  /// view over *all* entries (or none) is structurally independent of which
  /// tag that class carries. Empty/All slots can therefore be reused across
  /// round flips while the entry shapes and the liveness set are unchanged.
  enum class Coverage : std::uint8_t { Partial, Empty, All };
  Coverage coverage = Coverage::Partial;
  std::uint64_t shape_revision = 0;  ///< ReplyDb::view_shape_revision() at build
  std::uint64_t liveness_epoch = 0;  ///< detector epoch at build
  /// Process-unique content stamp assigned by finalize(): slot rotations and
  /// aliasing move it with the content, so equal build_ids mean "the exact
  /// same materialized view" (what lets the batch planner O(1)-compare the
  /// views feeding a fan-out instead of deep-comparing reach/reply sets).
  std::uint64_t build_id = 0;

  /// O(1): was `n` reachable from the owning controller when this view was
  /// built? (Membership in `reach`.)
  [[nodiscard]] bool reachable(NodeId n) const { return flat.reached(n); }

  void clear();
  /// Snapshot `view` into `flat` and precompute `reach` from `self`.
  void finalize(NodeId self);
};

class ViewCache {
 public:
  struct Stats {
    std::uint64_t refreshes = 0;   ///< refresh() calls
    std::uint64_t hits = 0;        ///< key unchanged, views reused untouched
    std::uint64_t rotations = 0;   ///< slot-reuse fast paths (no full build)
    std::uint64_t rebuilds = 0;    ///< full view materializations
    std::uint64_t paranoid_checks = 0;  ///< differential shadows run
  };

  explicit ViewCache(NodeId self) : self_(self) {}

  /// Differential mode: shadow every refresh with from-scratch builds.
  void set_paranoid(bool paranoid) { paranoid_ = paranoid; }

  /// Synchronize the three views with (db, tags, detector). O(1) when the
  /// key is unchanged; a clean round flip rotates slots; anything else
  /// rebuilds all three views once.
  void refresh(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
               const detect::ThetaDetector& detector);

  /// Drop the cached key and slot-reuse metadata (e.g. after corruption).
  void invalidate() {
    key_.valid = false;
    for (auto& s : slots_) s.coverage = ResView::Coverage::Partial;
  }

  [[nodiscard]] const ResView& res_curr() const { return *curr_; }
  [[nodiscard]] const ResView& res_prev() const { return *prev_; }
  [[nodiscard]] const ResView& fusion() const {
    switch (fusion_alias_) {
      case FusionAlias::Prev: return *prev_;
      case FusionAlias::Curr: return *curr_;
      case FusionAlias::None: break;
    }
    return *fus_;
  }
  /// True when G(fusion) is the prev slot itself (no curr-tagged entries);
  /// the controller uses this to skip the topology-stability compare.
  [[nodiscard]] bool fusion_aliases_prev() const {
    return fusion_alias_ == FusionAlias::Prev;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // --- From-scratch builders (paranoid mode, tests) -------------------------
  static void build_res(NodeId self, const ReplyDb& db, proto::Tag tag,
                        const detect::ThetaDetector& detector, ResView& out);
  static void build_fusion(NodeId self, const ReplyDb& db, proto::Tag curr,
                           proto::Tag prev,
                           const detect::ThetaDetector& detector, ResView& out);

 private:
  struct Key {
    bool valid = false;
    std::uint64_t db_revision = 0;
    proto::Tag curr;
    proto::Tag prev;
    std::uint64_t liveness_epoch = 0;
  };

  void resync(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
              const detect::ThetaDetector& detector);
  /// The self-only view (synthesized self record, no replies).
  void build_empty(const ReplyDb& db, const detect::ThetaDetector& detector,
                   ResView& out) const;
  void check_paranoid(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
                      const detect::ThetaDetector& detector);

  /// Which slot IS the fusion. When only one tag class has entries the
  /// fusion definition collapses onto that class's view — the steady-state
  /// norm (all replies re-tagged curr => fusion == res_curr; right after a
  /// clean flip => fusion == res_prev) — so most ticks materialize a single
  /// full view instead of three.
  enum class FusionAlias { None, Prev, Curr };

  NodeId self_;
  bool paranoid_ = false;
  Key key_;
  // Three long-lived slots addressed through pointers so a rotation is a
  // pointer swap, not a deep copy; their internal buffers are reused across
  // rebuilds.
  ResView slots_[3];
  ResView* curr_ = &slots_[0];
  ResView* prev_ = &slots_[1];
  ResView* fus_ = &slots_[2];
  FusionAlias fusion_alias_ = FusionAlias::None;
  Stats stats_;
};

}  // namespace ren::core
