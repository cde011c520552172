#include "core/view_cache.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

namespace ren::core {

void ResView::clear() {
  view = flows::TopoView{};
  transit.clear();
  reply_ids.clear();
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

void stamp(ResView& out, const ReplyDb& db,
           const detect::ThetaDetector& detector) {
  out.coverage = out.reply_ids.empty() ? ResView::Coverage::Empty
                 : out.reply_ids.size() == db.size()
                     ? ResView::Coverage::All
                     : ResView::Coverage::Partial;
  out.shape_revision = db.view_shape_revision();
  out.liveness_epoch = detector.liveness_epoch();
}

}  // namespace

void ViewCache::build_res(NodeId self, const ReplyDb& db, proto::Tag tag,
                          const detect::ThetaDetector& detector,
                          ResView& out) {
  out.clear();
  // The synthetic self record <i, Nc(i), {}, {}> (Algorithm 2, line 3).
  out.view.add_node(self);
  out.transit[self] = false;
  for (NodeId n : detector.live()) out.view.add_edge(self, n);
  for (const auto& [rid, m] : db.entries()) {
    if (!(m.tag_for_querier == tag)) continue;
    out.view.add_node(m.id);
    for (NodeId n : m.nc) out.view.add_edge(m.id, n);
    out.transit[m.id] = !m.from_controller;
    out.reply_ids.insert(m.id);
  }
  out.finalize(self);
  stamp(out, db, detector);
}

void ViewCache::build_fusion(NodeId self, const ReplyDb& db, proto::Tag curr,
                             proto::Tag prev,
                             const detect::ThetaDetector& detector,
                             ResView& out) {
  out.clear();
  out.view.add_node(self);
  out.transit[self] = false;
  for (NodeId n : detector.live()) out.view.add_edge(self, n);
  // res(currTag), then res(prevTag) entries not shadowed by a curr reply.
  for (const auto& [rid, m] : db.entries()) {
    const bool is_curr = m.tag_for_querier == curr;
    const bool is_prev = m.tag_for_querier == prev;
    if (!is_curr && !is_prev) continue;
    if (is_prev && !is_curr) {
      const proto::QueryReply* other = db.find(m.id);
      if (other != nullptr && other->tag_for_querier == curr) continue;
    }
    out.view.add_node(m.id);
    for (NodeId n : m.nc) out.view.add_edge(m.id, n);
    out.transit[m.id] = !m.from_controller;
    out.reply_ids.insert(m.id);
  }
  out.finalize(self);
  stamp(out, db, detector);
}

void ViewCache::build_empty(const ReplyDb& db,
                            const detect::ThetaDetector& detector,
                            ResView& out) const {
  out.clear();
  out.view.add_node(self_);
  out.transit[self_] = false;
  for (NodeId n : detector.live()) out.view.add_edge(self_, n);
  out.finalize(self_);
  stamp(out, db, detector);
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

void ViewCache::resync(const ReplyDb& db, proto::Tag curr, proto::Tag prev,
                       const detect::ThetaDetector& detector) {
  // Classify entries once. The replyDB is keyed by node id, so each tag
  // class is a disjoint entry subset; when one class holds everything (the
  // converged norm: all entries re-tagged curr at tick start, all entries
  // still prev right after a flip) the three views collapse to one
  // all-entries view plus the self-only view, and fusion aliases the full
  // one (no shadowing can occur).
  std::size_t n_curr = 0, n_prev = 0;
  for (const auto& [_, m] : db.entries()) {
    if (m.tag_for_querier == curr) {
      ++n_curr;
    } else if (m.tag_for_querier == prev) {
      ++n_prev;
    }
  }
  const std::size_t n = db.size();
  const std::uint64_t shape = db.view_shape_revision();
  const std::uint64_t live = detector.liveness_epoch();
  auto all_match = [&](const ResView* s) {
    return s->coverage == ResView::Coverage::All &&
           s->shape_revision == shape && s->liveness_epoch == live;
  };
  auto empty_match = [&](const ResView* s) {
    return s->coverage == ResView::Coverage::Empty &&
           s->liveness_epoch == live;
  };
  // `full` gets the all-entries view, `empty` the self-only view. An
  // existing slot whose entry subset and shapes are unchanged is reused by
  // pointer swap — tag churn alone never forces a build, which is what
  // makes a converged round flip (and the following tick start) O(1).
  auto fill = [&](ResView** full, ResView** empty, proto::Tag full_tag) {
    if (!all_match(*full)) {
      if (all_match(*empty)) {
        std::swap(*full, *empty);
      } else if (all_match(fus_)) {
        std::swap(*full, fus_);
      }
    }
    if (all_match(*full)) {
      ++stats_.rotations;
    } else {
      ++stats_.rebuilds;
      build_res(self_, db, full_tag, detector, **full);
    }
    if (!empty_match(*empty) && empty_match(fus_)) std::swap(*empty, fus_);
    if (!empty_match(*empty)) build_empty(db, detector, **empty);
  };
  if (n > 0 && n_curr == n && !(curr == prev)) {
    fill(&curr_, &prev_, curr);
    fusion_alias_ = FusionAlias::Curr;
  } else if (n > 0 && n_prev == n && !(curr == prev)) {
    fill(&prev_, &curr_, prev);
    fusion_alias_ = FusionAlias::Prev;
  } else {
    ++stats_.rebuilds;
    build_res(self_, db, curr, detector, *curr_);
    build_res(self_, db, prev, detector, *prev_);
    if (n_prev == 0 && !(curr == prev)) {
      fusion_alias_ = FusionAlias::Curr;
    } else if (n_curr == 0) {
      fusion_alias_ = FusionAlias::Prev;
    } else {
      build_fusion(self_, db, curr, prev, detector, *fus_);
      fusion_alias_ = FusionAlias::None;
    }
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
      what << "view mismatch";
    } else if (cached.transit != fresh.transit) {
      what << "transit mismatch";
    } else if (cached.reply_ids != fresh.reply_ids) {
      what << "reply_ids mismatch";
    } else {
      // Reachability differential against the independent std::set BFS of
      // TopoView (not the FlatView code path under test).
      const auto expect = fresh.view.reachable_set(self_);
      if (std::set<NodeId>(cached.reach.begin(), cached.reach.end()) !=
          std::set<NodeId>(expect.begin(), expect.end())) {
        what << "reach set mismatch";
      } else {
        for (const auto& [n, _] : fresh.view.adj()) {
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
