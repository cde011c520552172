// The in-band node contract shared by controllers and switches: both are
// nodes of one in-band control plane (paper Section 2), so both answer
// probes out of the arrival port, feed probe replies to their Theta
// detector, route their own frames toward non-adjacent peers by the port the
// peer was last heard on, and treat transit packets by role — a switch
// relays them, a controller never does.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/controller.hpp"
#include "net/simulator.hpp"
#include "switchd/abstract_switch.hpp"

namespace ren {
namespace {

constexpr Time kTask = msec(20);
constexpr Time kDetect = msec(10);

/// A passive port: records every packet that reaches it.
class Recorder : public net::Node {
 public:
  explicit Recorder(NodeId id) : net::Node(id, NodeKind::Host) {}
  void on_packet(NodeId, const net::Packet& p) override { got.push_back(p); }

  template <typename T>
  [[nodiscard]] std::vector<net::Packet> with() const {
    std::vector<net::Packet> out;
    for (const auto& p : got) {
      if (std::get_if<T>(&*p.payload) != nullptr) out.push_back(p);
    }
    return out;
  }

  std::vector<net::Packet> got;
};

struct ControllerNode {
  using Type = core::Controller;
  static constexpr bool kRelays = false;
  static core::Controller& add(net::Simulator& sim, NodeId id) {
    core::Controller::Config cfg;
    cfg.task_delay = kTask;
    cfg.detect_interval = kDetect;
    auto& c = sim.emplace_node<core::Controller>(id, cfg);
    c.set_frozen(true);  // no do-forever traffic: only the node module acts
    return c;
  }
  static void install_route(core::Controller&, NodeId, NodeId, NodeId) {}
};

struct SwitchNode {
  using Type = switchd::AbstractSwitch;
  static constexpr bool kRelays = true;
  static switchd::AbstractSwitch& add(net::Simulator& sim, NodeId id) {
    switchd::AbstractSwitch::Config cfg;
    cfg.tick_interval = kTask;
    cfg.detect_interval = kDetect;
    return sim.emplace_node<switchd::AbstractSwitch>(id, cfg);
  }
  static void install_route(switchd::AbstractSwitch& sw, NodeId src,
                            NodeId dst, NodeId fwd) {
    const proto::Tag tag{9, 1};
    sw.rule_table().new_round(9, tag, 2);
    sw.rule_table().update_rules(
        9,
        std::make_shared<const proto::RuleList>(
            proto::RuleList{proto::Rule{9, sw.id(), src, dst, 3, fwd}}),
        tag);
  }
};

/// Node 0 under test, recorders 1 and 2 on its two ports, and recorder 3
/// with no link at all: a peer the node can only reach in-band.
template <typename Traits>
class InBandNodeContract : public ::testing::Test {
 protected:
  void SetUp() override {
    sim = std::make_unique<net::Simulator>(1);
    node = &Traits::add(*sim, 0);
    r1 = &sim->emplace_node<Recorder>(1);
    r2 = &sim->emplace_node<Recorder>(2);
    sim->emplace_node<Recorder>(3);
    sim->add_link(0, 1, net::LinkParams{});
    sim->add_link(0, 2, net::LinkParams{});
    node->start();
  }

  void run_for(Time d) {
    clock += d;
    sim->run_until(clock);
  }

  /// Hand `payload` (src -> dst) to the node over the port facing node 1.
  void inject(NodeId src, NodeId dst, proto::Payload payload) {
    sim->send(1, 0, net::make_packet(src, dst, std::move(payload)));
  }

  std::unique_ptr<net::Simulator> sim;
  typename Traits::Type* node = nullptr;
  Recorder* r1 = nullptr;
  Recorder* r2 = nullptr;
  Time clock = 0;
};

using NodeKinds = ::testing::Types<ControllerNode, SwitchNode>;
TYPED_TEST_SUITE(InBandNodeContract, NodeKinds);

TYPED_TEST(InBandNodeContract, ProbeIsAnsweredOutOfArrivalPort) {
  this->inject(1, 0, proto::Payload{proto::Probe{77}});
  this->run_for(msec(5));
  const auto replies = this->r1->template with<proto::ProbeReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].src, 0);
  EXPECT_EQ(replies[0].dst, 1);
  EXPECT_EQ(std::get<proto::ProbeReply>(*replies[0].payload).round, 77u);
  EXPECT_TRUE(this->r2->template with<proto::ProbeReply>().empty());
}

TYPED_TEST(InBandNodeContract, ProbeReplyFeedsTheDetector) {
  this->run_for(kDetect);  // first detection round: both ports probed
  EXPECT_FALSE(this->node->detector().is_live(1));
  this->inject(1, 0, proto::Payload{proto::ProbeReply{1}});
  this->run_for(2 * kDetect);
  EXPECT_TRUE(this->node->detector().is_live(1));
  EXPECT_FALSE(this->node->detector().is_live(2));  // never answered
}

TYPED_TEST(InBandNodeContract, ProbesOfOneTickShareOnePayload) {
  this->run_for(3 * kDetect);
  std::map<std::uint64_t, std::vector<const proto::Payload*>> by_round;
  for (const auto* r : {this->r1, this->r2}) {
    for (const auto& p : r->template with<proto::Probe>()) {
      by_round[std::get<proto::Probe>(*p.payload).round].push_back(
          p.payload.get());
    }
  }
  ASSERT_GE(by_round.size(), 2u);
  std::set<const proto::Payload*> distinct;
  for (const auto& [round, payloads] : by_round) {
    ASSERT_EQ(payloads.size(), 2u) << "round " << round;  // one per port
    EXPECT_EQ(payloads[0], payloads[1]) << "round " << round;
    distinct.insert(payloads[0]);
  }
  EXPECT_EQ(distinct.size(), by_round.size());  // a fresh payload per tick
}

TYPED_TEST(InBandNodeContract, RepliesToOneRoundShareOnePayload) {
  this->inject(1, 0, proto::Payload{proto::Probe{77}});
  this->sim->send(2, 0, net::make_packet(2, 0, proto::Payload{proto::Probe{77}}));
  this->run_for(msec(5));
  this->inject(1, 0, proto::Payload{proto::Probe{78}});
  this->run_for(msec(5));
  const auto at1 = this->r1->template with<proto::ProbeReply>();
  const auto at2 = this->r2->template with<proto::ProbeReply>();
  ASSERT_EQ(at1.size(), 2u);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(std::get<proto::ProbeReply>(*at2[0].payload).round, 77u);
  EXPECT_EQ(at1[0].payload.get(), at2[0].payload.get());
  EXPECT_EQ(std::get<proto::ProbeReply>(*at1[1].payload).round, 78u);
  EXPECT_NE(at1[1].payload.get(), at1[0].payload.get());
  EXPECT_EQ(at1[1].bytes, at1[0].bytes);
}

TYPED_TEST(InBandNodeContract, FrameToRemotePeerLeavesOverLastHeardPort) {
  // Peer 3 queries the node in-band through node 1's port. Neither the ack
  // nor the reply has a rule to follow, so both leave over that port.
  proto::CommandBatch query;
  query.from = 3;
  query.commands = {proto::QueryCmd{proto::Tag{3, 1}}};
  this->inject(3, 0,
               proto::Payload{proto::Frame{
                   proto::FrameKind::Act, 1,
                   std::make_shared<const proto::Message>(
                       proto::Message{std::move(query)})}});
  this->run_for(msec(5));
  bool acked = false;
  bool replied = false;
  for (const auto& p : this->r1->template with<proto::Frame>()) {
    EXPECT_EQ(p.src, 0);
    EXPECT_EQ(p.dst, 3);
    const auto& f = std::get<proto::Frame>(*p.payload);
    acked = acked || (f.kind == proto::FrameKind::Ack && f.label == 1);
    replied = replied || (f.kind == proto::FrameKind::Act && f.payload &&
                          std::holds_alternative<proto::QueryReply>(*f.payload));
  }
  EXPECT_TRUE(acked);
  EXPECT_TRUE(replied);
  EXPECT_TRUE(this->r2->template with<proto::Frame>().empty());

  // With the hint port down the retransmitted reply has no way out.
  const auto drops = this->sim->counters().drops_no_rule;
  this->sim->set_link_state(0, 1, net::LinkState::TransientDown);
  this->run_for(2 * kTask);
  EXPECT_GT(this->sim->counters().drops_no_rule, drops);
  EXPECT_TRUE(this->r2->template with<proto::Frame>().empty());
}

TYPED_TEST(InBandNodeContract, TransitPacketsAreRelayedOnlyBySwitches) {
  TypeParam::install_route(*this->node, 1, 3, 2);
  const auto drops = this->sim->counters().drops_no_rule;
  this->inject(1, 2, proto::Payload{proto::Probe{5}});  // neighbor: no rule
  this->inject(1, 3, proto::Payload{proto::Probe{6}});  // ruled at a switch
  this->run_for(msec(5));
  std::vector<NodeId> relayed;
  for (const auto& p : this->r2->got) {
    if (p.src == 1) relayed.push_back(p.dst);
  }
  if (TypeParam::kRelays) {
    EXPECT_EQ(relayed, (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(this->sim->counters().drops_no_rule, drops);
  } else {
    EXPECT_TRUE(relayed.empty());
    EXPECT_EQ(this->sim->counters().drops_no_rule, drops + 2);
  }
}

TYPED_TEST(InBandNodeContract, UnroutableTransitCountsNoRuleDrop) {
  const auto drops = this->sim->counters().drops_no_rule;
  this->inject(1, 3, proto::Payload{proto::Probe{5}});
  this->run_for(msec(5));
  EXPECT_EQ(this->sim->counters().drops_no_rule, drops + 1);
  for (const auto& p : this->r2->got) EXPECT_NE(p.src, 1);
}

}  // namespace
}  // namespace ren
