// The legitimacy monitor itself: it must detect each Definition-1
// violation, and the protocol must then repair what the monitor flagged.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace ren::core {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;

TEST(Legitimacy, CleanBootstrapPasses) {
  sim::Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  const auto st = exp.monitor().check();
  EXPECT_TRUE(st.legitimate);
  EXPECT_TRUE(st.reason.empty());
}

TEST(Legitimacy, DetectsForeignManagerAndProtocolCleansIt) {
  sim::Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  // Inject a manager entry for a non-existent controller directly.
  auto* sw = exp.switches()[3];
  proto::CommandBatch b;
  b.from = 99;  // ghost controller
  b.commands = {proto::AddMngrCmd{99}};
  sw->on_packet(0, net::make_packet(
                       99, sw->id(),
                       proto::Payload{proto::Frame{
                           proto::FrameKind::Act, 12345,
                           std::make_shared<const proto::Message>(
                               proto::Message{b})}}));
  auto st = exp.monitor().check();
  EXPECT_FALSE(st.legitimate);
  // The controllers must clean the ghost up (stale-information removal).
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
  for (NodeId m : sw->managers()) EXPECT_NE(m, 99);
}

TEST(Legitimacy, DetectsGhostRulesAndProtocolCleansThem) {
  sim::Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  auto* sw = exp.switches()[5];
  auto ghost_rules = std::make_shared<proto::RuleList>();
  ghost_rules->push_back(proto::Rule{99, sw->id(), 1, 2, 3, 0});
  sw->rule_table().new_round(99, proto::Tag{99, 1}, 2);
  sw->rule_table().update_rules(99, ghost_rules, proto::Tag{99, 1});
  EXPECT_FALSE(exp.monitor().check().legitimate);
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
  EXPECT_FALSE(sw->rule_table().has_rules_of(99));
}

TEST(Legitimacy, DetectsStaleRuleContent) {
  sim::Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  // Tamper with one controller's installed rules at one switch.
  auto* sw = exp.switches()[1];
  const NodeId cid = exp.controller(0).id();
  auto current = sw->rule_table().newest_rules_of(cid);
  ASSERT_NE(current, nullptr);
  auto mutated = std::make_shared<proto::RuleList>(*current);
  ASSERT_FALSE(mutated->empty());
  (*mutated)[0].fwd = (*mutated)[0].fwd == 0 ? 1 : 0;
  const auto meta = sw->rule_table().meta_tag(cid);
  ASSERT_TRUE(meta.has_value());
  sw->rule_table().update_rules(cid, mutated, *meta);
  EXPECT_FALSE(exp.monitor().check().legitimate);
  // The owner refreshes its rules every iteration.
  const auto r = exp.run_until_legitimate(sec(30));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

TEST(Legitimacy, DetectsMissingManager) {
  sim::Experiment exp(fast_config("B4", 2));
  bootstrap_or_fail(exp);
  auto* sw = exp.switches()[2];
  proto::CommandBatch b;
  b.from = exp.controller(0).id();
  b.commands = {proto::DelMngrCmd{exp.controller(1).id()}};
  sw->on_packet(0, net::make_packet(
                       b.from, sw->id(),
                       proto::Payload{proto::Frame{
                           proto::FrameKind::Act, 54321,
                           std::make_shared<const proto::Message>(
                               proto::Message{b})}}));
  EXPECT_FALSE(exp.monitor().check().legitimate);
  const auto r = exp.run_until_legitimate(sec(30));
  EXPECT_TRUE(r.converged) << r.last_reason;  // self-heals via addMngr
}

TEST(Legitimacy, RequiresALiveController) {
  sim::Experiment exp(fast_config("B4", 1));
  bootstrap_or_fail(exp);
  exp.sim().kill_node(exp.controller(0).id());
  const auto st = exp.monitor().check();
  EXPECT_FALSE(st.legitimate);
  EXPECT_EQ(st.reason, "no live controller");
}

TEST(Legitimacy, TrueViewExcludesHostsAndDeadNodes) {
  auto cfg = fast_config("B4", 2);
  cfg.with_hosts = true;
  sim::Experiment exp(cfg);
  const auto view = exp.monitor().true_view();
  EXPECT_FALSE(view.has_node(exp.host_a()->id()));
  EXPECT_FALSE(view.has_node(exp.host_b()->id()));
  exp.sim().kill_node(3);
  EXPECT_FALSE(exp.monitor().true_view().has_node(3));
}

TEST(Legitimacy, AchievableKappaFollowsTheLiveFabric) {
  // lambda(Gc) - 1 over the live nodes, recomputed when the fabric changes.
  sim::Experiment exp(fast_config("B4", 2));
  EXPECT_EQ(exp.monitor().achievable_kappa(), 1);
  exp.sim().kill_node(2);  // leaves a bridge
  EXPECT_EQ(exp.monitor().achievable_kappa(), 0);
  // Without switch 0 the ids start at 1; the compaction into an index-dense
  // Graph absorbs that.
  sim::Experiment sparse(fast_config("B4", 2));
  sparse.sim().kill_node(0);
  EXPECT_EQ(sparse.monitor().achievable_kappa(), 1);
}

}  // namespace
}  // namespace ren::core
