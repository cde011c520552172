#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/simulator.hpp"

namespace ren::net {
namespace {

/// Records every delivered packet.
class SinkNode : public Node {
 public:
  SinkNode(NodeId id, NodeKind kind = NodeKind::Switch) : Node(id, kind) {}
  void on_packet(NodeId from, const Packet& p) override {
    deliveries.emplace_back(from, p);
  }
  std::vector<std::pair<NodeId, Packet>> deliveries;
};

Packet probe_packet(NodeId src, NodeId dst) {
  return make_packet(src, dst, proto::Payload{proto::Probe{1}});
}

TEST(Link, SerializationAndQueueOverflow) {
  // 1 Mbit/s link: a 1250-byte packet takes 10ms to serialize.
  LinkParams p;
  p.latency = 1000;
  p.bandwidth_bps = 1e6;
  p.max_queue_delay = 25'000;  // at most ~2.5 packets of backlog
  Link l(0, 0, 1, p);
  Rng rng(1);
  const auto t1 = l.plan_transmission(0, 1250, 0, rng);
  EXPECT_FALSE(t1.dropped);
  EXPECT_EQ(t1.deliver_at, 10'000 + 1000);
  const auto t2 = l.plan_transmission(0, 1250, 0, rng);
  EXPECT_EQ(t2.deliver_at, 20'000 + 1000);  // queued behind t1
  const auto t3 = l.plan_transmission(0, 1250, 0, rng);
  EXPECT_FALSE(t3.dropped);  // backlog 20ms < 25ms
  const auto t4 = l.plan_transmission(0, 1250, 0, rng);
  EXPECT_TRUE(t4.dropped);  // backlog 30ms > 25ms => drop-tail
}

TEST(Link, IndependentDirections) {
  LinkParams p;
  p.bandwidth_bps = 1e6;
  Link l(0, 0, 1, p);
  Rng rng(1);
  (void)l.plan_transmission(0, 12500, 0, rng);  // loads direction 0->1
  // The reverse direction is unaffected by the forward backlog:
  // 125 bytes at 1 Mbit/s = 1ms serialization, plus propagation.
  const auto rev = l.plan_transmission(1, 125, 0, rng);
  EXPECT_EQ(rev.deliver_at, 1000 + p.latency);
}

TEST(Link, LossAndDuplicationStatistics) {
  LinkParams p;
  p.faults.loss = 0.3;
  p.faults.duplicate = 0.2;
  Link l(0, 0, 1, p);
  Rng rng(99);
  int dropped = 0, dup = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto t = l.plan_transmission(0, 100, i * 10'000, rng);
    dropped += t.dropped ? 1 : 0;
    dup += t.duplicated ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.3, 0.02);
  // Duplication applies only to non-dropped packets.
  EXPECT_NEAR(static_cast<double>(dup) / (trials - dropped), 0.2, 0.02);
}

TEST(Network, AdjacencyAndStates) {
  Network n;
  n.ensure_nodes(3);
  n.add_link(0, 1, LinkParams{});
  n.add_link(1, 2, LinkParams{});
  EXPECT_EQ(n.link_count(), 2u);
  EXPECT_TRUE(n.link_operational(0, 1));
  EXPECT_FALSE(n.link_operational(0, 2));  // no such link
  n.find_link(0, 1)->set_state(LinkState::TransientDown);
  EXPECT_FALSE(n.link_operational(0, 1));
  EXPECT_TRUE(n.link_connected(0, 1));  // still in Gc
  n.find_link(0, 1)->set_state(LinkState::PermanentDown);
  EXPECT_FALSE(n.link_connected(0, 1));
  EXPECT_EQ(n.neighbors_connected(1), (std::vector<NodeId>{2}));
  EXPECT_THROW(n.add_link(0, 1, LinkParams{}), std::invalid_argument);
  EXPECT_THROW(n.add_link(2, 2, LinkParams{}), std::invalid_argument);
}

TEST(Simulator, DeliversAcrossLink) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0);
  auto& b = sim.emplace_node<SinkNode>(1);
  sim.add_link(0, 1, LinkParams{});
  sim.send(0, 1, probe_packet(0, 1));
  sim.run_until(sec(1));
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].first, 0);
  EXPECT_EQ(sim.counters().packets_delivered, 1u);
}

TEST(Simulator, DropsOnDownLinkAndDeadNode) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0);
  auto& b = sim.emplace_node<SinkNode>(1);
  sim.add_link(0, 1, LinkParams{});
  sim.set_link_state(0, 1, LinkState::TransientDown);
  sim.send(0, 1, probe_packet(0, 1));
  sim.run_until(sec(1));
  EXPECT_EQ(b.deliveries.size(), 0u);
  EXPECT_EQ(sim.counters().drops_link_down, 1u);

  sim.set_link_state(0, 1, LinkState::Up);
  sim.kill_node(1);  // also takes the link down permanently
  sim.send(0, 1, probe_packet(0, 1));
  sim.run_until(sec(2));
  EXPECT_EQ(b.deliveries.size(), 0u);
}

TEST(Simulator, InFlightPacketsDieWithPermanentFailure) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0);
  auto& b = sim.emplace_node<SinkNode>(1);
  LinkParams p;
  p.latency = msec(10);
  sim.add_link(0, 1, p);
  sim.send(0, 1, probe_packet(0, 1));
  sim.schedule(msec(1), [&] { sim.set_link_state(0, 1, LinkState::PermanentDown); });
  sim.run_until(sec(1));
  EXPECT_EQ(b.deliveries.size(), 0u);
}

TEST(Simulator, BlackholeDropsMostButSelectsLink) {
  Simulator sim(7);
  sim.emplace_node<SinkNode>(0);
  auto& b = sim.emplace_node<SinkNode>(1);
  sim.add_link(0, 1, LinkParams{});
  sim.set_link_state(0, 1, LinkState::Blackhole);
  EXPECT_TRUE(sim.network().link_operational(0, 1));  // rules still pick it
  for (int i = 0; i < 1000; ++i) sim.send(0, 1, probe_packet(0, 1));
  sim.run_until(sec(1));
  EXPECT_GT(b.deliveries.size(), 20u);   // a trickle passes
  EXPECT_LT(b.deliveries.size(), 300u);  // most are lost
}

TEST(Simulator, ScheduleForSkipsDeadNodes) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0);
  int fired = 0;
  sim.schedule_for(0, msec(10), [&] { ++fired; });
  sim.kill_node(0);
  sim.run_until(sec(1));
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ScheduleForSkipsStaleIncarnation) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0);
  sim.emplace_node<SinkNode>(1);
  std::vector<std::string> order;
  // Scheduled in incarnation 0; the node dies and comes back before it is
  // due, so it must never fire.
  sim.schedule_for(1, msec(10), [&] { order.push_back("stale"); });
  sim.kill_node(1);
  sim.revive_node(1);
  // Scheduled in incarnation 1: fires at 20 ms, in node 1's context. The
  // event it schedules lands on node 1's lane, so at equal time it runs
  // after node 0's event even though it was scheduled later.
  sim.schedule_for(1, msec(20), [&] {
    order.push_back("fresh");
    sim.schedule_at(msec(30), [&] { order.push_back("node1-lane"); });
  });
  sim.schedule_for(0, msec(30), [&] { order.push_back("node0-lane"); });
  sim.run_until(sec(1));
  EXPECT_EQ(order,
            (std::vector<std::string>{"fresh", "node0-lane", "node1-lane"}));
}

TEST(Simulator, NodesOfKind) {
  Simulator sim(1);
  sim.emplace_node<SinkNode>(0, NodeKind::Switch);
  sim.emplace_node<SinkNode>(1, NodeKind::Controller);
  sim.emplace_node<SinkNode>(2, NodeKind::Switch);
  EXPECT_EQ(sim.nodes_of_kind(NodeKind::Switch).size(), 2u);
  EXPECT_EQ(sim.nodes_of_kind(NodeKind::Controller),
            (std::vector<NodeId>{1}));
}

TEST(Simulator, DenseNodeIdsEnforced) {
  Simulator sim(1);
  EXPECT_THROW(sim.emplace_node<SinkNode>(5), std::invalid_argument);
}

}  // namespace
}  // namespace ren::net
