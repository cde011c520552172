// The per-tick controller view cache must be observationally equivalent to
// building res(curr)/res(prev)/fusion from scratch at every consumer — under
// randomized reply/tag/liveness churn, across reuse of the all-entries and
// self-only views, and
// through the built-in scenario timelines with Config::paranoid live.
// The differential reference here is written against the seed's original
// semantics (std::map view construction + TopoView::reachable_set),
// deliberately independent of the FlatView code path under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/view_cache.hpp"
#include "test_helpers.hpp"

namespace ren::core {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;
using ren::testing::paranoid_config;

// --- Reference implementation (the seed's build_res / build_fusion) ----------

struct RefView {
  flows::TopoView view;
  std::map<NodeId, bool> transit;
  std::set<NodeId> reply_ids;
};

RefView ref_res(NodeId self, const ReplyDb& db, proto::Tag tag,
                const detect::ThetaDetector& det) {
  RefView res;
  res.view.add_node(self);
  res.transit[self] = false;
  for (NodeId n : det.live()) res.view.add_edge(self, n);
  for (const auto& [rid, m] : db.entries()) {
    if (!(m.tag_for_querier == tag)) continue;
    res.view.add_node(m.id);
    for (NodeId n : m.nc) res.view.add_edge(m.id, n);
    res.transit[m.id] = !m.from_controller;
    res.reply_ids.insert(m.id);
  }
  return res;
}

RefView ref_fusion(NodeId self, const ReplyDb& db, proto::Tag curr,
                   proto::Tag prev, const detect::ThetaDetector& det) {
  RefView res;
  res.view.add_node(self);
  res.transit[self] = false;
  for (NodeId n : det.live()) res.view.add_edge(self, n);
  for (const auto& [rid, m] : db.entries()) {
    const bool is_curr = m.tag_for_querier == curr;
    const bool is_prev = m.tag_for_querier == prev;
    if (!is_curr && !is_prev) continue;
    if (is_prev && !is_curr) {
      const proto::QueryReply* other = db.find(m.id);
      if (other != nullptr && other->tag_for_querier == curr) continue;
    }
    res.view.add_node(m.id);
    for (NodeId n : m.nc) res.view.add_edge(m.id, n);
    res.transit[m.id] = !m.from_controller;
    res.reply_ids.insert(m.id);
  }
  return res;
}

void expect_equivalent(NodeId self, const ResView& cached, const RefView& ref,
                       const char* which, int step) {
  ASSERT_TRUE(cached.view == ref.view) << which << " view diverged @" << step;
  ASSERT_EQ(cached.transit, ref.transit) << which << " transit @" << step;
  ASSERT_EQ(cached.reply_ids, ref.reply_ids) << which << " replies @" << step;
  // Reachability: the cached BFS-order list and O(1) membership must match
  // the independent std::set BFS over the reference view.
  const auto expect = ref.view.reachable_set(self);
  ASSERT_EQ(std::set<NodeId>(cached.reach.begin(), cached.reach.end()),
            std::set<NodeId>(expect.begin(), expect.end()))
      << which << " reach set @" << step;
  for (const auto& [n, _] : ref.view.adj()) {
    const bool want =
        std::find(expect.begin(), expect.end(), n) != expect.end();
    ASSERT_EQ(cached.reachable(n), want)
        << which << " reachable(" << n << ") @" << step;
  }
  // And a couple of ids guaranteed absent from the view.
  ASSERT_FALSE(cached.reachable(kNoNode));
  ASSERT_FALSE(cached.reachable(1 << 20));
}

/// Round-completion verdict as the controller derives it from a cached view.
bool verdict(NodeId self, const ResView& res) {
  for (NodeId n : res.reach) {
    if (n == self) continue;
    if (res.reply_ids.count(n) == 0) return false;
  }
  return true;
}

bool ref_verdict(NodeId self, const RefView& res) {
  for (NodeId n : res.view.reachable_set(self)) {
    if (n == self) continue;
    if (res.reply_ids.count(n) == 0) return false;
  }
  return true;
}

TEST(ViewCache, RandomizedChurnMatchesFromScratchBuilds) {
  const NodeId self = 0;
  const NodeId node_space = 24;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 0x9e3779b9ULL);
    ReplyDb db(ReplyDb::Config{48, seed % 2 == 0});
    detect::ThetaDetector det(self, detect::ThetaDetector::Config{3});
    det.set_candidates({1, 2, 3});
    ViewCache cache(self);
    // A small tag pool makes collisions (re-used tags, curr == prev) likely.
    std::vector<proto::Tag> tags;
    for (std::uint32_t e = 0; e < 6; ++e) {
      tags.push_back(proto::Tag{static_cast<NodeId>(e % 3), e});
    }
    proto::Tag curr = tags[0], prev = proto::kNullTag;
    auto rand_node = [&] {
      return static_cast<NodeId>(rng.next_below(node_space));
    };
    for (int step = 0; step < 400; ++step) {
      switch (rng.next_below(8)) {
        case 0:
        case 1: {  // a reply arrives (make_room first, as Controller::on_message does)
          proto::QueryReply m;
          m.id = rand_node();
          const auto deg = rng.next_below(4);
          for (std::uint64_t k = 0; k < deg; ++k) m.nc.push_back(rand_node());
          std::sort(m.nc.begin(), m.nc.end());
          m.nc.erase(std::unique(m.nc.begin(), m.nc.end()), m.nc.end());
          m.from_controller = rng.chance(0.2);
          m.tag_for_querier = rng.chance(0.7) ? curr : tags[rng.next_below(6)];
          db.make_room(m.id);
          db.store(std::move(m));
          break;
        }
        case 2:  // prune-style erase
          db.erase_if([&](const proto::QueryReply& m) {
            return m.id % 3 == static_cast<NodeId>(rng.next_below(3));
          });
          break;
        case 3:  // round flip (occasionally onto a recycled tag)
          prev = curr;
          curr = tags[rng.next_below(6)];
          break;
        case 4: {  // detection round with random replies
          for (NodeId n : {1, 2, 3}) {
            if (rng.chance(0.6)) det.on_probe_reply(n);
          }
          det.tick([](NodeId, proto::Probe) {});
          break;
        }
        case 5:  // candidate churn
          det.set_candidates(rng.chance(0.5)
                                 ? std::vector<NodeId>{1, 2, 3}
                                 : std::vector<NodeId>{1, 3, 4});
          break;
        case 6:  // transient corruption
          if (rng.chance(0.3)) db.corrupt(rng, node_space);
          if (rng.chance(0.3)) det.corrupt(rng);
          if (rng.chance(0.3)) cache.invalidate();
          break;
        case 7:  // quiet step (re-refresh with nothing changed: hit path)
          break;
      }
      cache.refresh(db, curr, prev, det);
      const RefView rc = ref_res(self, db, curr, det);
      const RefView rp = ref_res(self, db, prev, det);
      const RefView rf = ref_fusion(self, db, curr, prev, det);
      expect_equivalent(self, cache.res_curr(), rc, "res_curr", step);
      expect_equivalent(self, cache.res_prev(), rp, "res_prev", step);
      expect_equivalent(self, cache.fusion(), rf, "fusion", step);
      ASSERT_EQ(verdict(self, cache.res_curr()), ref_verdict(self, rc))
          << "round-completion verdict @" << step;
    }
    // The churn must actually have exercised the fast paths: whole-key
    // hits, and resyncs served from the cached views without a build.
    const auto& st = cache.stats();
    EXPECT_GT(st.hits, 0u) << "seed " << seed;
    EXPECT_GT(st.rebuilds, 0u) << "seed " << seed;
    EXPECT_LT(st.hits + st.rebuilds, st.refreshes) << "seed " << seed;
  }
}

TEST(ViewCache, HitRotationAndRebuildCounters) {
  const NodeId self = 0;
  ReplyDb db(ReplyDb::Config{16, true});
  detect::ThetaDetector det(self, detect::ThetaDetector::Config{3});
  det.set_candidates({1});
  det.on_probe_reply(1);
  det.tick([](NodeId, proto::Probe) {});
  ViewCache cache(self);
  const proto::Tag t1{0, 1}, t2{0, 2}, t3{0, 3};

  auto reply = [](NodeId id, proto::Tag tag) {
    proto::QueryReply m;
    m.id = id;
    m.nc = {0};
    m.tag_for_querier = tag;
    return m;
  };
  db.store(reply(1, t1));
  db.store(reply(2, t1));

  cache.refresh(db, t1, proto::kNullTag, det);  // first sync: rebuild
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  const std::uint64_t all_id = cache.res_curr().build_id;
  cache.refresh(db, t1, proto::kNullTag, det);  // unchanged: hit
  EXPECT_EQ(cache.stats().hits, 1u);

  // A clean round flip serves the all-entries view as res(prev) and the
  // fusion — no view construction.
  cache.refresh(db, t2, t1, det);
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.res_prev().build_id, all_id);
  EXPECT_EQ(&cache.fusion(), &cache.res_prev());
  EXPECT_EQ(cache.res_prev().reply_ids, (std::set<NodeId>{1, 2}));
  EXPECT_TRUE(cache.res_curr().reply_ids.empty());

  // All replies re-tag onto the new round: the entry shapes are unchanged
  // (same nc), so the tick-start resync serves the same view as res(curr).
  db.store(reply(1, t2));
  db.store(reply(2, t2));
  cache.refresh(db, t2, t1, det);
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.res_curr().build_id, all_id);
  EXPECT_EQ(&cache.fusion(), &cache.res_curr());
  EXPECT_EQ(cache.res_curr().reply_ids, (std::set<NodeId>{1, 2}));

  // A reply whose neighborhood changed breaks the shape key: full rebuild.
  auto m = reply(1, t3);
  m.nc = {0, 2};
  db.store(std::move(m));
  db.store(reply(2, t3));
  cache.refresh(db, t3, t2, det);
  EXPECT_GE(cache.stats().rebuilds, 2u);
}

TEST(ViewCache, MixedStateKeepsTheAllEntriesView) {
  // All entries curr-tagged, then one re-tagged prev (a mixed state that
  // builds partial class views but serves the fusion from the all-entries
  // view), then re-tagged curr again: the all-entries view cached in the
  // first step still describes the db and is served as is.
  const NodeId self = 0;
  ReplyDb db(ReplyDb::Config{16, true});
  detect::ThetaDetector det(self, detect::ThetaDetector::Config{3});
  det.set_candidates({1});
  det.on_probe_reply(1);
  det.tick([](NodeId, proto::Probe) {});
  ViewCache cache(self);
  const proto::Tag prev{0, 1}, curr{0, 2};
  auto reply = [](NodeId id, proto::Tag tag) {
    proto::QueryReply m;
    m.id = id;
    m.nc = {0, static_cast<NodeId>(id + 1)};
    m.tag_for_querier = tag;
    return m;
  };
  auto expect_matches_scratch = [&](int step) {
    expect_equivalent(self, cache.res_curr(), ref_res(self, db, curr, det),
                      "res_curr", step);
    expect_equivalent(self, cache.res_prev(), ref_res(self, db, prev, det),
                      "res_prev", step);
    expect_equivalent(self, cache.fusion(),
                      ref_fusion(self, db, curr, prev, det), "fusion", step);
  };
  for (NodeId id : {1, 2, 3}) db.store(reply(id, curr));
  cache.refresh(db, curr, prev, det);
  expect_matches_scratch(0);
  const std::uint64_t all_id = cache.res_curr().build_id;
  const std::uint64_t rebuilds = cache.stats().rebuilds;

  db.store(reply(2, prev));
  cache.refresh(db, curr, prev, det);
  expect_matches_scratch(1);
  EXPECT_EQ(cache.stats().rebuilds, rebuilds + 1);
  EXPECT_NE(cache.res_curr().build_id, all_id);
  // The two classes together hold every entry: the fusion is the
  // all-entries view.
  EXPECT_EQ(cache.fusion().build_id, all_id);

  db.store(reply(2, curr));
  cache.refresh(db, curr, prev, det);
  expect_matches_scratch(2);
  EXPECT_EQ(cache.stats().rebuilds, rebuilds + 1);
  EXPECT_EQ(cache.res_curr().build_id, all_id);
}

// --- Controller-level differential (Config::paranoid) ------------------------

TEST(ViewCacheParanoid, BootstrapAgrees) {
  sim::Experiment exp(paranoid_config("B4", 3));
  bootstrap_or_fail(exp);
  // Every refresh on the way up ran the from-scratch differential.
  EXPECT_GT(exp.controller(0).view_cache().stats().paranoid_checks, 0u);
}

TEST(ViewCacheParanoid, SteadyStateReusesSlotsWithoutRebuilding) {
  sim::Experiment exp(fast_config("B4", 3));
  bootstrap_or_fail(exp);
  for (int i = 0; i < 10; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
  }
  const auto before = exp.controller(0).view_cache().stats();
  for (int i = 0; i < 20; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
  }
  const auto after = exp.controller(0).view_cache().stats();
  // Converged rounds flip tags every tick, but tag churn alone must never
  // rebuild a view: every refresh is a hit or served from the cached views.
  EXPECT_EQ(after.rebuilds, before.rebuilds);
  EXPECT_GT(after.refreshes - after.hits, before.refreshes - before.hits);
}

TEST(ViewCacheParanoid, FaultStormAgrees) {
  sim::Experiment exp(paranoid_config("Clos", 3, /*seed=*/7));
  bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  Rng storm(0x5eed5eedULL);
  for (int round = 0; round < 6; ++round) {
    switch (storm.next_below(5)) {
      case 0:
        faults::kill_random_controllers(cp, storm, 1);
        break;
      case 1:
        faults::kill_random_switches(cp, storm, 1);
        break;
      case 2:
        faults::fail_random_links(cp, storm, 2, /*keep_connected=*/true);
        break;
      case 3:
        faults::corrupt_all_state(cp, storm);
        break;
      case 4:
        faults::restart_all_nodes(cp);
        faults::restore_all_links(cp);
        break;
    }
    // A cache divergence throws std::logic_error out of the controller's
    // do-forever task and would abort the run here.
    for (int i = 0; i < 40; ++i) {
      exp.sim().run_until(exp.sim().now() + msec(25));
    }
  }
  faults::restart_all_nodes(cp);
  faults::restore_all_links(cp);
  const auto r = exp.run_until_legitimate(sec(120));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

TEST(ViewCacheParanoid, ScenarioTimelinesPass) {
  // Trial 1 of every built-in fault timeline with the view differential live
  // on every controller tick; the monitor test covers trial 0, so together
  // the three timeline tests see three seeds per scenario.
  ren::testing::expect_builtin_timelines_pass_paranoid(/*trial=*/1);
}

// --- FlatView ----------------------------------------------------------------

TEST(FlatView, MatchesTopoViewReachabilityOnRandomDigraphs) {
  Rng rng(0xf1a7ULL);
  for (int trial = 0; trial < 50; ++trial) {
    flows::TopoView v;
    const NodeId n = 2 + static_cast<NodeId>(rng.next_below(20));
    // Sparse ids (stride 7) exercise the non-dense fallback path too.
    const NodeId stride = trial % 2 == 0 ? 1 : 7919;
    for (int e = 0; e < 40; ++e) {
      const NodeId a = static_cast<NodeId>(rng.next_below(n)) * stride;
      const NodeId b = static_cast<NodeId>(rng.next_below(n)) * stride;
      v.add_edge(a, b);
    }
    flows::FlatView flat;
    flat.assign(v);
    ASSERT_EQ(flat.n(), static_cast<int>(v.node_count()));
    const NodeId src = static_cast<NodeId>(rng.next_below(n)) * stride;
    std::vector<NodeId> out;
    flat.reachable_from(src, out);
    const auto expect = v.reachable_set(src);
    ASSERT_EQ(std::set<NodeId>(out.begin(), out.end()),
              std::set<NodeId>(expect.begin(), expect.end()));
    for (const auto& [node, _] : v.adj()) {
      const bool want =
          std::find(expect.begin(), expect.end(), node) != expect.end();
      ASSERT_EQ(flat.reached(node), want) << "node " << node;
    }
    ASSERT_FALSE(flat.reached(static_cast<NodeId>(n) * stride + 1));
  }
}

}  // namespace
}  // namespace ren::core
