// The line-19 batch planner must be observationally equivalent to building
// every per-peer CommandBatch from scratch each tick — under randomized
// fault storms, across rotations/reuse/sharing, and through the built-in
// scenario timelines with Config::paranoid live. The differential
// reference inside BatchPlanner::check_paranoid is written against the
// seed's original std::set fan-out and compares canonical byte encodings.
#include <gtest/gtest.h>

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
  // never rebuild a batch: it retags the cached message in place. Only a
  // message still referenced elsewhere is cloned (the query-only batch
  // shared by the controller peers), so clones stay a small minority.
  EXPECT_EQ(after.rebuilt, before.rebuilt);
  EXPECT_GT(after.planned, before.planned);
  const std::uint64_t rotated = after.rotated - before.rotated;
  const std::uint64_t cloned = after.cloned - before.cloned;
  EXPECT_GT(rotated, 0u);
  EXPECT_LE(cloned * 10, rotated) << "cloned " << cloned;
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

TEST(BatchPlanner, FigNineAccountingMatchesTheBaseline) {
  // The logical send accounting behind bench_fig09 (per-controller command
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
