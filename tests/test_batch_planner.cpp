// The line-19 batch planner must be observationally equivalent to building
// every per-peer CommandBatch from scratch each tick — under randomized
// fault storms, across rotations/reuse/sharing, and through the built-in
// scenario timelines with Config::paranoid live. The differential
// reference inside BatchPlanner::check_paranoid is written against the
// seed's original std::set fan-out and compares the batches by value.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/batch_planner.hpp"
#include "test_helpers.hpp"

namespace ren::core {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;
using ren::testing::paranoid_config;

TEST(BatchKey, EqualityAndRotationClasses) {
  const auto rules = std::make_shared<const proto::RuleList>();
  proto::BatchKey a;
  a.tag = proto::Tag{1, 7};
  a.retention = 3;
  a.rules = rules;
  a.victims = {4, 9};
  proto::BatchKey b = a;
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.same_except_tag(b));
  b.tag = proto::Tag{1, 8};
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.same_except_tag(b));  // the rotation fast path
  b.rules = std::make_shared<const proto::RuleList>(*rules);
  EXPECT_FALSE(a.same_except_tag(b));  // same bytes, different identity
  EXPECT_EQ(a.command_count(), 4u + 2u * 2u);
  proto::BatchKey q;
  q.query_only = true;
  EXPECT_EQ(q.command_count(), 2u);
}

TEST(BatchKey, BuildBatchMatchesKeyShape) {
  proto::BatchKey k;
  k.tag = proto::Tag{2, 5};
  k.retention = 2;
  k.victims = {3};
  k.rules = std::make_shared<const proto::RuleList>();
  const proto::Message m = proto::build_batch(7, k);
  const auto& b = std::get<proto::CommandBatch>(m);
  EXPECT_EQ(b.from, 7);
  ASSERT_EQ(b.commands.size(), k.command_count());
  EXPECT_TRUE(std::holds_alternative<proto::NewRoundCmd>(b.commands.front()));
  EXPECT_TRUE(std::holds_alternative<proto::QueryCmd>(b.commands.back()));
}

TEST(BatchPlannerParanoid, BootstrapAgrees) {
  sim::Experiment exp(paranoid_config("B4", 3));
  bootstrap_or_fail(exp);
  // Every fan-out on the way up ran the from-scratch differential.
  EXPECT_GT(exp.controller(0).batch_planner().stats().paranoid_checks, 0u);
}

TEST(BatchPlannerParanoid, SteadyStateRotatesWithoutRebuilding) {
  sim::Experiment exp(fast_config("B4", 3));
  bootstrap_or_fail(exp);
  for (int i = 0; i < 10; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
  }
  const auto before = exp.controller(0).batch_planner().stats();
  for (int i = 0; i < 20; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(50));
  }
  const auto after = exp.controller(0).batch_planner().stats();
  // Converged rounds flip the tag every tick, but tag churn alone must
  // never rebuild a batch: it retags the cached message in place. Every
  // peer owns its message, and by the next tick the transport has had it
  // acknowledged, so no steady-state rotation needs a clone.
  EXPECT_EQ(after.rebuilt, before.rebuilt);
  EXPECT_GT(after.planned, before.planned);
  EXPECT_GT(after.rotated, before.rotated);
  EXPECT_EQ(after.cloned, before.cloned);
  // And the fan-out *gate* carries the steady state: no input moved, so the
  // whole fan-out is served as a rotation without a single key re-derived.
  EXPECT_EQ(after.full_plans, before.full_plans);
  EXPECT_GT(after.gate_rotations, before.gate_rotations);
}

TEST(BatchPlannerParanoid, GateReopensOnChurnAndStaysCorrect) {
  // Fault churn must force full re-plans (the gate is input-keyed), and the
  // live differential guarantees the rotation ticks in between were exact.
  auto cfg = paranoid_config("B4", 3, /*seed=*/11);
  sim::Experiment exp(cfg);
  bootstrap_or_fail(exp);
  const auto before = exp.controller(0).batch_planner().stats();
  auto cp = exp.control_plane();
  Rng rng(0x9a7e);
  faults::fail_random_links(cp, rng, 2, /*keep_connected=*/true);
  for (int i = 0; i < 40; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(25));
  }
  faults::restore_all_links(cp);
  const auto r = exp.run_until_legitimate(sec(60));
  ASSERT_TRUE(r.converged) << r.last_reason;
  const auto after = exp.controller(0).batch_planner().stats();
  EXPECT_GT(after.full_plans, before.full_plans);
  EXPECT_GT(after.paranoid_checks, before.paranoid_checks);
}

TEST(BatchPlannerParanoid, FaultStormAgrees) {
  sim::Experiment exp(paranoid_config("Clos", 3, /*seed=*/7));
  bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  Rng storm(0xba7c4b47ULL);
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
    // A planner divergence throws std::logic_error out of the controller's
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

TEST(BatchPlannerParanoid, ScenarioTimelinesPass) {
  // Trial 2 of every built-in fault timeline with the batch differential
  // live on every controller tick (trials 0 and 1 run in the monitor and
  // view timeline tests).
  ren::testing::expect_builtin_timelines_pass_paranoid(/*trial=*/2);
}

/// Plan two fan-outs (a full plan, then a gate rotation under the next
/// tag) to one replied switch with the shadow live. The planner's
/// rules_for call gets `planned`; every later call, the shadow's, gets a
/// fresh copy of `shadow`.
void plan_with_shadow_rules(const proto::RuleList& planned,
                            const proto::RuleList& shadow) {
  const NodeId self = 0;
  ReplyDb db(ReplyDb::Config{16, true});
  detect::ThetaDetector det(self, detect::ThetaDetector::Config{3});
  det.set_candidates({1});
  det.on_probe_reply(1);
  det.tick([](NodeId, proto::Probe) {});
  const proto::Tag prev{self, 1}, curr{self, 2}, next{self, 3};
  proto::QueryReply m;
  m.id = 1;
  m.nc = {self};
  m.tag_for_querier = curr;
  db.store(m);
  ResView refer, res_prev, fusion;
  ViewCache::build_res(self, db, curr, det, refer);
  ViewCache::build_res(self, db, prev, det, res_prev);
  ViewCache::build_fusion(self, db, curr, prev, det, fusion);

  int rules_calls = 0, sends = 0;
  BatchPlanner::Hooks hooks;
  hooks.rules_for = [&](NodeId) {
    return std::make_shared<const proto::RuleList>(
        rules_calls++ == 0 ? planned : shadow);
  };
  hooks.note_deletion = [](NodeId) {};
  hooks.send = [&](NodeId peer, proto::MessagePtr, std::size_t commands) {
    EXPECT_EQ(peer, 1);
    EXPECT_EQ(commands, 4u);
    ++sends;
  };
  BatchPlanner planner(self, BatchPlanner::Config{2, true, true},
                       std::move(hooks));
  planner.plan_fanout(db, refer, res_prev, fusion, curr, false, 0, 0);
  planner.plan_fanout(db, refer, res_prev, fusion, next, false, 0, 0);
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(planner.stats().gate_rotations, 1u);
  EXPECT_EQ(planner.stats().paranoid_checks, 2u);
}

TEST(BatchPlannerParanoid, ShadowComparesContentNotPointers) {
  // The shadow's rule lists are always new objects: equal content must
  // pass, and one changed rule must be reported.
  const proto::RuleList rules = {{0, 1, kNoNode, 0, 1, 0},
                                 {0, 1, 2, 3, 0, 4}};
  EXPECT_NO_THROW(plan_with_shadow_rules(rules, rules));
  proto::RuleList changed = rules;
  changed[1].fwd = 5;
  EXPECT_THROW(plan_with_shadow_rules(rules, changed), std::logic_error);
  // A null list and an empty one carry the same (no) rules.
  const proto::UpdateRuleCmd null_list{nullptr, proto::Tag{0, 1}};
  const proto::UpdateRuleCmd empty_list{
      std::make_shared<const proto::RuleList>(), proto::Tag{0, 1}};
  EXPECT_EQ(null_list, empty_list);
}

TEST(BatchPlannerParanoid, LossyLinksCloneUnderTheShadow) {
  // A lost frame or ack keeps a batch in flight into the next tick, so the
  // steady-state rotation must clone it instead of retagging in place; the
  // shadow checks every cloned batch.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto cfg = paranoid_config("B4", 3, seed);
    cfg.link_loss = 0.05;
    sim::Experiment exp(cfg);
    const auto r = exp.run_until_legitimate(sec(60));
    ASSERT_TRUE(r.converged) << "seed " << seed << ": " << r.last_reason;
    exp.sim().run_until(exp.sim().now() + sec(2));
    std::uint64_t cloned = 0, checks = 0;
    for (const Controller* c : exp.controllers()) {
      cloned += c->batch_planner().stats().cloned;
      checks += c->batch_planner().stats().paranoid_checks;
    }
    EXPECT_GT(cloned, 0u) << "seed " << seed;
    EXPECT_GT(checks, 0u) << "seed " << seed;
  }
}

TEST(BatchPlanner, FigNineAccountingMatchesTheBaseline) {
  // The logical send accounting behind Fig. 9 (per-controller command
  // and message counts of a seeded bootstrap) is pinned to the values the
  // rebuild-every-tick fan-out produced, with the from-scratch differential
  // live so every key's command count is also checked against its oracle
  // batch on every tick.
  struct Want {
    std::uint64_t seed;
    std::vector<std::uint64_t> commands, messages;
  };
  const Want wants[] = {
      {1, {158, 160, 162}, {46, 45, 47}},
      {2, {162, 162, 156}, {47, 47, 44}},
      {3, {206, 252, 210}, {62, 75, 63}},
  };
  for (const Want& want : wants) {
    sim::Experiment exp(paranoid_config("B4", 3, want.seed));
    const auto r = exp.run_until_legitimate(sec(60));
    ASSERT_TRUE(r.converged) << r.last_reason;
    EXPECT_EQ(r.commands, want.commands) << "seed " << want.seed;
    EXPECT_EQ(r.messages, want.messages) << "seed " << want.seed;
  }
}

}  // namespace
}  // namespace ren::core
