#include <gtest/gtest.h>

#include <map>

#include "detect/theta_detector.hpp"

namespace ren::detect {
namespace {

struct Harness {
  explicit Harness(int theta) : det(0, ThetaDetector::Config{theta}) {}

  /// One detection round; `alive` answers probes.
  void round(const std::map<NodeId, bool>& alive) {
    // Feed replies for the round the detector asked about last tick, then
    // tick (which evaluates and probes again) — mirrors the node wiring.
    det.tick([this](NodeId n, proto::Probe) { probed.push_back(n); });
    for (const auto& [n, up] : alive) {
      if (up) det.on_probe_reply(n);
    }
  }

  ThetaDetector det;
  std::vector<NodeId> probed;
};

TEST(ThetaDetector, NeighborsConfirmedAfterFirstReply) {
  Harness h(3);
  h.det.set_candidates({1, 2});
  EXPECT_TRUE(h.det.live().empty());  // unconfirmed at start
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  EXPECT_EQ(h.det.live(), (std::vector<NodeId>{1, 2}));
}

TEST(ThetaDetector, HostsNeverEnterTheNeighborhood) {
  Harness h(3);
  h.det.set_candidates({1, 2, 99});  // 99 is a host: never replies
  for (int i = 0; i < 20; ++i) h.round({{1, true}, {2, true}});
  EXPECT_EQ(h.det.live(), (std::vector<NodeId>{1, 2}));
  EXPECT_FALSE(h.det.is_live(99));
}

TEST(ThetaDetector, SuspectsAfterThetaRelativeMisses) {
  const int theta = 5;
  Harness h(theta);
  h.det.set_candidates({1, 2});
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  // 2 dies; 1 keeps answering.
  for (int i = 0; i < theta - 1; ++i) {
    h.round({{1, true}});
    EXPECT_TRUE(h.det.is_live(2)) << "suspected too early at round " << i;
  }
  h.round({{1, true}});
  h.round({{1, true}});  // evaluation happens at the next tick
  EXPECT_FALSE(h.det.is_live(2));
  EXPECT_TRUE(h.det.is_live(1));
}

TEST(ThetaDetector, NoEvidenceNoSuspicion) {
  // If *nobody* answers (e.g. the node itself is partitioned), relative
  // counting gives no evidence, so nobody gets suspected.
  Harness h(2);
  h.det.set_candidates({1, 2});
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  for (int i = 0; i < 10; ++i) h.round({});
  EXPECT_TRUE(h.det.is_live(1));
  EXPECT_TRUE(h.det.is_live(2));
}

TEST(ThetaDetector, RecoversOnReply) {
  const int theta = 3;
  Harness h(theta);
  h.det.set_candidates({1, 2});
  h.round({{1, true}, {2, true}});
  for (int i = 0; i < theta + 2; ++i) h.round({{1, true}});
  EXPECT_FALSE(h.det.is_live(2));
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  EXPECT_TRUE(h.det.is_live(2));
}

TEST(ThetaDetector, CandidateChangesPreserveState) {
  Harness h(3);
  h.det.set_candidates({1, 2});
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  h.det.set_candidates({1, 2, 3});  // port added
  EXPECT_TRUE(h.det.is_live(1));
  h.det.set_candidates({1});  // ports removed
  EXPECT_FALSE(h.det.is_live(2));
  EXPECT_TRUE(h.det.is_live(1));
}

TEST(ThetaDetector, UnchangedCandidatesLeaveStateAlone) {
  const int theta = 3;
  Harness h(theta);
  h.det.set_candidates({1, 2, 3});
  h.round({{1, true}, {2, true}, {3, true}});
  h.round({{1, true}, {2, true}, {3, true}});
  // 3 stops answering: one relative miss counted, a second pending.
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  const auto epoch = h.det.liveness_epoch();
  const auto live = h.det.live();
  h.det.set_candidates({1, 2, 3});  // the same ports again
  EXPECT_EQ(h.det.liveness_epoch(), epoch);
  EXPECT_EQ(h.det.live(), live);
  // The miss count survived: two more evaluations reach theta and suspect
  // 3, exactly as without the redeclaration.
  EXPECT_TRUE(h.det.is_live(3));
  h.round({{1, true}, {2, true}});
  h.round({{1, true}, {2, true}});
  EXPECT_FALSE(h.det.is_live(3));
  EXPECT_GT(h.det.liveness_epoch(), epoch);
}

TEST(ThetaDetector, ProbesAllCandidatesEveryRound) {
  Harness h(3);
  h.det.set_candidates({4, 5, 6});
  h.round({});
  EXPECT_EQ(h.probed, (std::vector<NodeId>{4, 5, 6}));
}

TEST(ThetaDetector, LivenessEpochBumpsExactlyWhenTheReportedSetChanges) {
  Harness h(2);
  h.det.set_candidates({1, 2});
  const auto e0 = h.det.liveness_epoch();
  h.round({});  // nothing replied: still unconfirmed, no change
  EXPECT_EQ(h.det.liveness_epoch(), e0);
  h.round({{1, true}, {2, true}});  // replies land: still pre-tick state
  h.round({{1, true}, {2, true}});
  const auto e1 = h.det.liveness_epoch();
  EXPECT_GT(e1, e0);  // both neighbors entered the reported set
  // Quiet rounds with the same answers leave the epoch untouched.
  for (int i = 0; i < 5; ++i) h.round({{1, true}, {2, true}});
  EXPECT_EQ(h.det.liveness_epoch(), e1);
  // Relative misses eventually suspect 2: one bump when it drops out.
  for (int i = 0; i < 4; ++i) h.round({{1, true}, {2, false}});
  const auto e2 = h.det.liveness_epoch();
  EXPECT_GT(e2, e1);
  EXPECT_EQ(h.det.live(), (std::vector<NodeId>{1}));
  // Dropping a live candidate port changes the reported set too.
  h.det.set_candidates({2});
  EXPECT_GT(h.det.liveness_epoch(), e2);
}

TEST(ThetaDetector, RecoversFromCorruption) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Harness h(3);
    h.det.set_candidates({1, 2});
    h.round({{1, true}, {2, true}});
    Rng rng(seed);
    h.det.corrupt(rng);
    // A few truthful rounds restore the exact neighborhood.
    for (int i = 0; i < 3; ++i) h.round({{1, true}, {2, true}});
    EXPECT_EQ(h.det.live(), (std::vector<NodeId>{1, 2})) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ren::detect
