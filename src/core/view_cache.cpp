#include "core/view_cache.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

namespace ren::core {

void ResView::clear() {
  view = flows::TopoView{};
  reach.clear();
}

void ResView::finalize(NodeId self) {
  flat.assign(view);
  reach.clear();
  flat.reachable_from(self, reach);
  static std::atomic<std::uint64_t> next_build_id{0};
  build_id = ++next_build_id;
}

// --- From-scratch builders ----------------------------------------------------

namespace {

/// Reset `out` to the synthetic self record <i, Nc(i), {}, {}> (Algorithm 2,
/// line 3).
void start_with_self(NodeId self, const detect::ThetaDetector& detector,
                     ResView& out) {
  out.clear();
  out.view.set_kind(self, NodeKind::Controller);
  for (NodeId n : detector.live()) out.view.add_edge(self, n);
}

void add_reply(const proto::QueryReply& m, ResView& out) {
  out.view.set_kind(m.id, m.from_controller ? NodeKind::Controller
                                            : NodeKind::Switch);
  for (NodeId n : m.nc) out.view.add_edge(m.id, n);
}

/// The view of the self record plus every replyDB entry whose tag `keep`
/// accepts.
template <class Keep>
void build_view(NodeId self, const ReplyDb& db,
                const detect::ThetaDetector& detector, Keep keep,
                ResView& out) {
  start_with_self(self, detector, out);
  for (const auto& [rid, m] : db.entries()) {
    if (keep(m.tag_for_querier)) add_reply(m, out);
  }
  out.finalize(self);
}

}  // namespace

void ViewCache::build_res(NodeId self, const ReplyDb& db, proto::Tag tag,
                          const detect::ThetaDetector& detector,
                          ResView& out) {
  build_view(self, db, detector, [&](proto::Tag t) { return t == tag; }, out);
}

void ViewCache::build_fusion(NodeId self, const ReplyDb& db, proto::Tag curr,
                             proto::Tag prev,
                             const detect::ThetaDetector& detector,
                             ResView& out) {
  // The replyDB holds one entry per id, so no prev entry is shadowed by a
  // curr one: the fusion is every entry with either tag.
  build_view(self, db, detector,
             [&](proto::Tag t) { return t == curr || t == prev; }, out);
}

// --- Cache maintenance --------------------------------------------------------

void ViewCache::refresh(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
                        const detect::ThetaDetector& detector) {
  ++stats_.refreshes;
  const std::uint64_t db_rev = db.revision();
  const std::uint64_t live_epoch = detector.liveness_epoch();
  if (key_.valid && key_.db_revision == db_rev &&
      key_.liveness_epoch == live_epoch && key_.curr == curr &&
      key_.prev == prev) {
    ++stats_.hits;
  } else {
    resync(db, curr, prev, detector);
  }
  key_ = Key{true, db_rev, curr, prev, live_epoch};
  if (paranoid_) check_paranoid(db, curr, prev, detector);
}

const ResView* ViewCache::class_view(const ReplyDb& db, proto::Tag tag,
                                     std::size_t count,
                                     const detect::ThetaDetector& detector,
                                     ResView& partial) {
  const std::uint64_t live = detector.liveness_epoch();
  if (count == 0) {
    if (!self_only_.fresh(0, live)) {
      start_with_self(self_, detector, self_only_.res);
      self_only_.res.finalize(self_);
      self_only_.stamp(0, live);
      ++stats_.rebuilds;
    }
    return &self_only_.res;
  }
  if (count == db.size()) return all_entries_view(db, detector);
  build_res(self_, db, tag, detector, partial);
  ++stats_.rebuilds;
  return &partial;
}

const ResView* ViewCache::all_entries_view(
    const ReplyDb& db, const detect::ThetaDetector& detector) {
  const std::uint64_t shape = db.view_shape_revision();
  const std::uint64_t live = detector.liveness_epoch();
  if (!all_.fresh(shape, live)) {
    build_view(self_, db, detector, [](proto::Tag) { return true; },
               all_.res);
    all_.stamp(shape, live);
    ++stats_.rebuilds;
  }
  return &all_.res;
}

void ViewCache::resync(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
                       const detect::ThetaDetector& detector) {
  std::size_t n_curr = 0, n_prev = 0;
  for (const auto& [_, m] : db.entries()) {
    n_curr += m.tag_for_querier == curr ? 1 : 0;
    n_prev += m.tag_for_querier == prev ? 1 : 0;
  }
  const std::size_t n_fused = curr == prev ? n_curr : n_curr + n_prev;
  curr_ = class_view(db, curr, n_curr, detector, curr_partial_);
  prev_ = class_view(db, prev, n_prev, detector, prev_partial_);
  if (n_prev == 0) {
    fusion_ = curr_;
  } else if (n_curr == 0) {
    fusion_ = prev_;
  } else if (n_fused == db.size()) {
    fusion_ = all_entries_view(db, detector);
  } else {
    build_fusion(self_, db, curr, prev, detector, fusion_partial_);
    fusion_ = &fusion_partial_;
    ++stats_.rebuilds;
  }
}

void ViewCache::check_paranoid(const ReplyDb& db, proto::Tag curr,
                               proto::Tag prev,
                               const detect::ThetaDetector& detector) {
  ++stats_.paranoid_checks;
  auto verify = [&](const ResView& cached, const ResView& fresh,
                    const char* which) {
    std::ostringstream what;
    if (!(cached.view == fresh.view)) {
      what << "view mismatch";  // nodes, edges or kinds
    } else {
      // Reachability differential against the independent std::set BFS of
      // TopoView (not the FlatView code path under test).
      const auto expect = fresh.view.reachable_set(self_);
      if (std::set<NodeId>(cached.reach.begin(), cached.reach.end()) !=
          std::set<NodeId>(expect.begin(), expect.end())) {
        what << "reach set mismatch";
      } else {
        for (const auto& [n, _] : fresh.view.nodes()) {
          const bool want = std::find(expect.begin(), expect.end(), n) !=
                            expect.end();
          if (cached.reachable(n) != want) {
            what << "reachable(" << n << ") = " << cached.reachable(n)
                 << ", want " << want;
            break;
          }
        }
      }
    }
    if (what.str().empty()) return;
    throw std::logic_error(std::string("ViewCache paranoid divergence [") +
                           which + "] for controller " +
                           std::to_string(self_) + ": " + what.str());
  };
  ResView fresh;
  build_res(self_, db, curr, detector, fresh);
  verify(res_curr(), fresh, "res_curr");
  build_res(self_, db, prev, detector, fresh);
  verify(res_prev(), fresh, "res_prev");
  build_fusion(self_, db, curr, prev, detector, fresh);
  verify(fusion(), fresh, "fusion");
}

}  // namespace ren::core
