// One cached view construction per controller tick.
//
// Algorithm 2 consumes three directed topology views per do-forever
// iteration — res(currTag), res(prevTag) and their fusion — and the seed
// rebuilt them from the replyDB at every consumer: twice in the prune step,
// once in the round-completion test, and three more times for reference
// selection, six-plus std::map/std::set constructions plus a BFS per use,
// every task_delay, per controller. The ViewCache hands out the three views
// as pointers into views cached by the inputs they read.
//
// refresh() is O(1) while the whole key
//
//   (ReplyDb::revision(), currTag, prevTag, ThetaDetector::liveness_epoch())
//
// is unchanged. Otherwise the replyDB is keyed by node id, so each tag
// class is a disjoint entry subset, and two views do not depend on which
// tag a class carries:
//
//   - a class holding every entry is served the all-entries view, cached on
//     (ReplyDb::view_shape_revision(), liveness epoch);
//   - a class holding no entry is served the self-only view (the
//     synthesized self record), cached on the liveness epoch.
//
// A converged round flip (every entry prev-tagged) and the re-tagging that
// follows (every entry curr-tagged) therefore build nothing. Only a mixed
// state builds its partial views. The fusion is res(curr) when no entry is
// prev-tagged and res(prev) when none is curr-tagged: with one tag class
// empty the fusion definition collapses onto the other. When the two
// classes together hold every entry, the fusion is the all-entries view.
//
// Reachability is precomputed per view on an index-mapped flat adjacency
// (flows::FlatView): one integer BFS per build with an epoch-stamped visited
// array that then answers membership in O(1). Every view keeps its buffers
// across builds, so a steady-state tick allocates nothing here.
//
// Controller::Config::paranoid mirrors the legitimacy monitor's
// differential mode: every refresh() outcome is shadowed by from-scratch
// builds — with reachability recomputed through the *independent*
// TopoView::reachable_set() implementation — and any divergence throws
// std::logic_error.
#pragma once

#include <cstdint>
#include <vector>

#include "core/reply_db.hpp"
#include "detect/theta_detector.hpp"
#include "flows/graph.hpp"
#include "proto/tag.hpp"
#include "util/types.hpp"

namespace ren::core {

/// A topology view materialized from replyDB entries with one tag (or the
/// curr/prev fusion), plus its precomputed reachability from the owner.
/// The view's kinds say who replied: the owner is a controller, a replier
/// has the kind its reply states, a node known only as a claimed neighbor
/// has none. So "n replied" is "n has a kind and is not the owner".
struct ResView {
  flows::TopoView view;
  flows::FlatView flat;            ///< index-mapped snapshot of `view`
  std::vector<NodeId> reach;       ///< reachable from the owner, BFS order
  /// Process-unique content stamp assigned by finalize(): equal build_ids
  /// mean "the exact same materialized view" (what lets the batch planner
  /// O(1)-compare the views feeding a fan-out instead of deep-comparing
  /// views and reach sets).
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
    /// Views built: each partial curr/prev view, all-entries view,
    /// self-only view or fusion a refresh constructs.
    std::uint64_t rebuilds = 0;
    std::uint64_t paranoid_checks = 0;  ///< differential shadows run
  };

  explicit ViewCache(NodeId self) : self_(self) {}

  /// Differential mode: shadow every refresh with from-scratch builds.
  void set_paranoid(bool paranoid) { paranoid_ = paranoid; }

  /// Synchronize the three views with (db, tags, detector). O(1) when the
  /// key is unchanged; otherwise serves the cached all-entries and
  /// self-only views where they apply and builds only partial views.
  void refresh(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
               const detect::ThetaDetector& detector);

  /// Drop every cached key (e.g. after corruption).
  void invalidate() { key_.valid = all_.valid = self_only_.valid = false; }

  [[nodiscard]] const ResView& res_curr() const { return *curr_; }
  [[nodiscard]] const ResView& res_prev() const { return *prev_; }
  /// May be the same object as res_curr() or res_prev().
  [[nodiscard]] const ResView& fusion() const { return *fusion_; }

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
  /// A tag-independent view and the input revisions it was built under
  /// (the self-only view reads no replyDB entry and stamps shape 0).
  struct Cached {
    ResView res;
    bool valid = false;
    std::uint64_t shape_revision = 0;
    std::uint64_t liveness_epoch = 0;

    [[nodiscard]] bool fresh(std::uint64_t shape, std::uint64_t live) const {
      return valid && shape_revision == shape && liveness_epoch == live;
    }
    void stamp(std::uint64_t shape, std::uint64_t live) {
      valid = true;
      shape_revision = shape;
      liveness_epoch = live;
    }
  };

  void resync(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
              const detect::ThetaDetector& detector);
  /// The view of a tag class holding `count` of the db's entries: the
  /// cached self-only or all-entries view, or `partial` built in place.
  const ResView* class_view(const ReplyDb& db, proto::Tag tag,
                            std::size_t count,
                            const detect::ThetaDetector& detector,
                            ResView& partial);
  /// The cached all-entries view, rebuilt from every entry when stale.
  const ResView* all_entries_view(const ReplyDb& db,
                                  const detect::ThetaDetector& detector);
  void check_paranoid(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
                      const detect::ThetaDetector& detector);

  NodeId self_;
  bool paranoid_ = false;
  Key key_;
  Cached all_;
  Cached self_only_;
  ResView curr_partial_, prev_partial_, fusion_partial_;
  const ResView* curr_ = &self_only_.res;
  const ResView* prev_ = &self_only_.res;
  const ResView* fusion_ = &self_only_.res;
  Stats stats_;
};

}  // namespace ren::core
