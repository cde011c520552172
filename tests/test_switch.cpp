#include <gtest/gtest.h>

#include "net/simulator.hpp"
#include "switchd/abstract_switch.hpp"

namespace ren::switchd {
namespace {

/// A scripted controller stand-in that records everything it receives.
class Probe : public net::Node {
 public:
  explicit Probe(NodeId id) : net::Node(id, NodeKind::Controller) {}
  void on_packet(NodeId from, const net::Packet& p) override {
    if (const auto* f = std::get_if<proto::Frame>(&*p.payload)) {
      if (f->kind == proto::FrameKind::Act && f->payload) {
        if (const auto* r = std::get_if<proto::QueryReply>(&*f->payload)) {
          replies.push_back(*r);
        }
        // ack so the switch's session advances
        proto::Frame ack;
        ack.kind = proto::FrameKind::Ack;
        ack.label = f->label;
        sim_->send(id(), from,
                   net::make_packet(id(), p.src, proto::Payload{ack}));
      }
    } else if (std::get_if<proto::Probe>(&*p.payload) != nullptr) {
      sim_->send(id(), from,
                 net::make_packet(id(), from,
                                  proto::Payload{proto::ProbeReply{}}));
    }
  }

  void send_batch(NodeId to, proto::CommandBatch batch) {
    proto::Frame f;
    f.kind = proto::FrameKind::Act;
    f.label = ++label_;
    f.payload =
        std::make_shared<const proto::Message>(proto::Message{std::move(batch)});
    sim_->send(id(), to, net::make_packet(id(), to, proto::Payload{f}));
  }

  std::vector<proto::QueryReply> replies;

 private:
  std::uint32_t label_ = 0;
};

struct Fixture : public ::testing::Test {
  // Topology: probe(2) - switch(0) - switch(1), plus host 3 on switch 0.
  void SetUp() override {
    sim = std::make_unique<net::Simulator>(1);
    AbstractSwitch::Config cfg;
    cfg.detect_interval = msec(10);
    cfg.tick_interval = msec(20);
    sw0 = &sim->emplace_node<AbstractSwitch>(0, cfg);
    sw1 = &sim->emplace_node<AbstractSwitch>(1, cfg);
    probe = &sim->emplace_node<Probe>(2);
    sim->add_link(0, 1, net::LinkParams{});
    sim->add_link(0, 2, net::LinkParams{});
    sw0->start();
    sw1->start();
  }

  proto::CommandBatch batch_with(std::vector<proto::Command> cmds) {
    proto::CommandBatch b;
    b.from = 2;
    b.commands = std::move(cmds);
    return b;
  }

  std::unique_ptr<net::Simulator> sim;
  AbstractSwitch* sw0 = nullptr;
  AbstractSwitch* sw1 = nullptr;
  Probe* probe = nullptr;
};

TEST_F(Fixture, AnswersQueriesWithConfiguration) {
  probe->send_batch(
      0, batch_with({proto::NewRoundCmd{proto::Tag{2, 5}, 2},
                     proto::AddMngrCmd{2}, proto::QueryCmd{proto::Tag{2, 5}}}));
  sim->run_until(sec(1));
  ASSERT_EQ(probe->replies.size(), 1u);
  const auto& r = probe->replies[0];
  EXPECT_EQ(r.id, 0);
  EXPECT_FALSE(r.from_controller);
  EXPECT_EQ(r.managers, (std::vector<NodeId>{2}));
  EXPECT_EQ(r.tag_for_querier.epoch, 5u);  // the meta tag just installed
}

TEST_F(Fixture, NeighborhoodDiscoveryExcludesSilentPorts) {
  sim->run_until(sec(2));
  // sw0's ports: sw1 and the probe controller reply; detector reports both.
  const auto live = sw0->detector().live();
  EXPECT_EQ(live, (std::vector<NodeId>{1, 2}));
}

TEST_F(Fixture, BatchAppliesAtomicallyInOrder) {
  auto rules = std::make_shared<proto::RuleList>();
  rules->push_back(proto::Rule{2, 0, 2, 1, 3, 1});
  probe->send_batch(
      0, batch_with({proto::NewRoundCmd{proto::Tag{2, 1}, 2},
                     proto::DelMngrCmd{9}, proto::AddMngrCmd{2},
                     proto::UpdateRuleCmd{rules, proto::Tag{2, 1}},
                     proto::QueryCmd{proto::Tag{2, 1}}}));
  sim->run_until(sec(1));
  ASSERT_EQ(probe->replies.size(), 1u);
  // The reply snapshot reflects the full batch.
  EXPECT_EQ(probe->replies[0].managers, (std::vector<NodeId>{2}));
  ASSERT_EQ(probe->replies[0].rule_owners.size(), 1u);
  EXPECT_EQ(probe->replies[0].rule_owners[0].count, 1u);
}

TEST_F(Fixture, ForwardsByInstalledRules) {
  auto rules = std::make_shared<proto::RuleList>();
  rules->push_back(proto::Rule{2, 0, 5, 1, 3, 1});  // (src=5,dst=1) -> port 1
  probe->send_batch(0,
                    batch_with({proto::NewRoundCmd{proto::Tag{2, 1}, 2},
                                proto::UpdateRuleCmd{rules, proto::Tag{2, 1}}}));
  sim->run_until(msec(100));
  // A transit packet from 5 to 1 entering sw0 must reach sw1's control
  // module (it is addressed to 1 == sw1).
  auto pkt = net::make_packet(5, 1, proto::Payload{proto::Probe{77}});
  sw0->on_packet(2, pkt);
  const auto delivered_before = sim->counters().packets_delivered;
  sim->run_until(sec(1));
  EXPECT_GT(sim->counters().packets_delivered, delivered_before);
}

TEST_F(Fixture, QueryByNeighborDeliversWithoutRules) {
  // No rules at sw0: a packet addressed to its direct neighbor sw1 is
  // handed over anyway (Section 2.1.1 query-by-neighbor).
  auto pkt = net::make_packet(2, 1, proto::Payload{proto::Probe{1}});
  sw0->on_packet(2, pkt);
  const auto drops_before = sim->counters().drops_no_rule;
  sim->run_until(sec(1));
  EXPECT_EQ(sim->counters().drops_no_rule, drops_before);
}

TEST_F(Fixture, DropsUnroutableTransitPackets) {
  auto pkt = net::make_packet(2, 99, proto::Payload{proto::Probe{1}});
  sw0->on_packet(2, pkt);
  sim->run_until(sec(1));
  EXPECT_GT(sim->counters().drops_no_rule, 0u);
}

TEST_F(Fixture, TtlExhaustionDrops) {
  auto pkt = net::make_packet(2, 1, proto::Payload{proto::Probe{1}});
  pkt.ttl = 0;
  sw0->on_packet(2, pkt);
  sim->run_until(sec(1));
  EXPECT_EQ(sim->counters().drops_ttl, 1u);
}

TEST_F(Fixture, ManagerSetIsBoundedLru) {
  AbstractSwitch::Config cfg;
  cfg.max_managers = 2;
  auto& sw = sim->emplace_node<AbstractSwitch>(3, cfg);
  proto::CommandBatch b1;
  b1.from = 10;
  b1.commands = {proto::AddMngrCmd{10}};
  sw.on_packet(0, net::make_packet(10, 3, proto::Payload{proto::Frame{
                      proto::FrameKind::Act, 1,
                      std::make_shared<const proto::Message>(
                          proto::Message{b1})}}));
  proto::CommandBatch b2;
  b2.from = 11;
  b2.commands = {proto::AddMngrCmd{11}};
  sw.on_packet(0, net::make_packet(11, 3, proto::Payload{proto::Frame{
                      proto::FrameKind::Act, 1,
                      std::make_shared<const proto::Message>(
                          proto::Message{b2})}}));
  proto::CommandBatch b3;
  b3.from = 12;
  b3.commands = {proto::AddMngrCmd{12}};
  sw.on_packet(0, net::make_packet(12, 3, proto::Payload{proto::Frame{
                      proto::FrameKind::Act, 1,
                      std::make_shared<const proto::Message>(
                          proto::Message{b3})}}));
  EXPECT_EQ(sw.managers().size(), 2u);
  EXPECT_EQ(sw.manager_evictions(), 1u);
  // 10 was the least recently added; 11 and 12 survive.
  EXPECT_EQ(sw.managers(), (std::vector<NodeId>{11, 12}));
}

TEST(SwitchLookupCache, SteadyBatchesTakeNoLookupMisses) {
  // The rule table keeps one lookup layout, re-selected lazily on the first
  // lookup after a mutation. A steady batch passes through a transient
  // layout between its newRound and its updateRule; that is free only
  // because on_message applies the whole batch before the query reply's
  // frame does its lookup. Topology: sw0 - sw1 - controller 2, so sw0
  // routes its replies by the installed rule (dest 2 -> port 1).
  for (int retention : {2, 3}) {
    net::Simulator sim(1);
    AbstractSwitch::Config cfg;
    cfg.detect_interval = msec(10);
    cfg.tick_interval = msec(20);
    auto& sw0 = sim.emplace_node<AbstractSwitch>(0, cfg);
    auto& sw1 = sim.emplace_node<AbstractSwitch>(1, cfg);
    auto& ctrl = sim.emplace_node<Probe>(2);
    sim.add_link(0, 1, net::LinkParams{});
    sim.add_link(1, 2, net::LinkParams{});
    sw0.start();
    sw1.start();
    auto rules = std::make_shared<proto::RuleList>();
    rules->push_back(proto::Rule{2, 0, kNoNode, 2, 1, 1});
    const RuleTable& table = sw0.rule_table();
    RuleTable::CacheStats warm;
    const std::uint32_t rounds = 12, warm_up = 4;
    for (std::uint32_t round = 1; round <= rounds; ++round) {
      const proto::Tag tag{2, round};
      proto::CommandBatch b;
      b.from = 2;
      b.commands = {proto::NewRoundCmd{tag, retention}, proto::AddMngrCmd{2},
                    proto::UpdateRuleCmd{rules, tag}, proto::QueryCmd{tag}};
      sw0.on_packet(1, net::make_packet(2, 0, proto::Payload{proto::Frame{
                           proto::FrameKind::Act, round,
                           std::make_shared<const proto::Message>(
                               proto::Message{std::move(b)})}}));
      sim.run_until(sim.now() + msec(50));
      if (round == warm_up) warm = table.cache_stats();
    }
    ASSERT_EQ(ctrl.replies.size(), rounds) << "retention " << retention;
    EXPECT_GT(warm.misses, 0u) << "retention " << retention;
    EXPECT_EQ(table.cache_stats().misses, warm.misses)
        << "retention " << retention;
    // Every reply after the warm-up was routed through a cache hit.
    EXPECT_GE(table.cache_stats().hits, warm.hits + (rounds - warm_up))
        << "retention " << retention;
  }
}

}  // namespace
}  // namespace ren::switchd
