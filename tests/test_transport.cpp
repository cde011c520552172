#include <gtest/gtest.h>

#include <deque>

#include "transport/endpoint.hpp"

namespace ren::transport {
namespace {

proto::Message text_message(NodeId from, int payload) {
  proto::QueryReply r;
  r.id = from;
  r.rules_wire_bytes = static_cast<std::size_t>(payload);  // carries the value
  return proto::Message{r};
}

int payload_of(const proto::MessagePtr& m) {
  return static_cast<int>(std::get<proto::QueryReply>(*m).rules_wire_bytes);
}

/// A lossy in-memory channel between two endpoints, with deterministic
/// fault injection: every frame sent is queued; `pump` delivers them,
/// dropping/duplicating per the configured pattern.
struct Harness {
  Harness() {
    auto make = [this](NodeId self, NodeId peer,
                            std::unique_ptr<Endpoint>& slot,
                            std::vector<int>& delivered) {
      slot = std::make_unique<Endpoint>(
          self,
          Endpoint::Hooks{
              [this, self](NodeId to, proto::PayloadPtr f, std::uint32_t) {
                wire.push_back({self, to, std::get<proto::Frame>(*f)});
              },
              [&delivered](NodeId, proto::MessagePtr m) {
                delivered.push_back(payload_of(m));
              },
              [this, self](NodeId) { ++new_messages[self]; }});
      (void)peer;
    };
    make(1, 2, a, delivered_at_a);
    make(2, 1, b, delivered_at_b);
  }

  /// Deliver queued frames; `drop(i)` decides per frame.
  void pump(const std::function<bool(std::size_t)>& drop = {}) {
    std::size_t i = 0;
    while (!wire.empty()) {
      auto [from, to, frame] = wire.front();
      wire.pop_front();
      if (drop && drop(i++)) continue;
      (to == 1 ? *a : *b).on_frame(from, frame);
    }
  }

  struct WireFrame {
    NodeId from, to;
    proto::Frame frame;
  };
  std::deque<WireFrame> wire;
  std::unique_ptr<Endpoint> a, b;
  std::vector<int> delivered_at_a, delivered_at_b;
  std::map<NodeId, int> new_messages;
};

TEST(Transport, DeliversOnCleanChannel) {
  Harness h;
  h.a->submit(2, text_message(1, 42));
  h.pump();
  EXPECT_EQ(h.delivered_at_b, (std::vector<int>{42}));
  EXPECT_TRUE(h.a->idle(2));  // ack consumed
}

TEST(Transport, RetransmitsUntilAcked) {
  Harness h;
  h.a->submit(2, text_message(1, 7));
  // Drop everything on the first two attempts.
  h.pump([](std::size_t) { return true; });
  EXPECT_TRUE(h.delivered_at_b.empty());
  h.a->tick();  // retransmit
  h.pump([](std::size_t) { return true; });
  h.a->tick();
  h.pump();  // now deliver
  EXPECT_EQ(h.delivered_at_b, (std::vector<int>{7}));
  EXPECT_GE(h.a->retransmissions(), 2u);
}

TEST(Transport, DuplicateFramesDeliverOnce) {
  Harness h;
  h.a->submit(2, text_message(1, 9));
  // Duplicate by retransmitting before the ack is processed.
  h.a->tick();
  h.a->tick();
  h.pump();
  EXPECT_EQ(h.delivered_at_b, (std::vector<int>{9}));
}

TEST(Transport, SupersedeReplacesInflight) {
  Harness h;
  h.a->submit(2, text_message(1, 1));
  // Ack never returns; a newer message must still go out.
  h.pump([](std::size_t) { return true; });
  h.a->submit(2, text_message(1, 2));
  h.pump();
  EXPECT_EQ(h.delivered_at_b.back(), 2);
}

TEST(Transport, BidirectionalSessionsAreIndependent) {
  Harness h;
  h.a->submit(2, text_message(1, 10));
  h.b->submit(1, text_message(2, 20));
  h.pump();
  h.pump();
  EXPECT_EQ(h.delivered_at_b, (std::vector<int>{10}));
  EXPECT_EQ(h.delivered_at_a, (std::vector<int>{20}));
}

TEST(Transport, IdempotentResubmitKeepsLabelAndCountsLogicalSends) {
  Harness h;
  const proto::MessagePtr msg =
      proto::make_message(text_message(1, 77));
  h.a->submit(2, msg);
  const auto first = h.a->debug_send_session(2);
  ASSERT_TRUE(first.inflight);
  // The ack never comes back; resubmitting the identical payload pointer
  // must refresh the in-flight slot without advancing the label...
  h.pump([](std::size_t) { return true; });
  h.a->submit(2, msg);
  h.a->submit(2, msg);
  const auto after = h.a->debug_send_session(2);
  EXPECT_TRUE(after.inflight);
  EXPECT_EQ(after.label, first.label);
  // ...while still counting every submit as a logical send (Fig. 9).
  EXPECT_EQ(h.new_messages[1], 3);
  // Delivery still happens exactly once for the one label.
  h.pump();
  EXPECT_EQ(h.delivered_at_b, (std::vector<int>{77}));
}

TEST(Transport, IdempotentResubmitThenContentChangeAdvancesLabel) {
  Harness h;
  const proto::MessagePtr same = proto::make_message(text_message(1, 1));
  h.a->submit(2, same);
  const auto l0 = h.a->debug_send_session(2).label;
  h.pump([](std::size_t) { return true; });
  h.a->submit(2, same);  // no new label
  EXPECT_EQ(h.a->debug_send_session(2).label, l0);
  h.a->submit(2, proto::make_message(text_message(1, 2)));  // new content
  EXPECT_NE(h.a->debug_send_session(2).label, l0);
  h.pump();
  EXPECT_EQ(h.delivered_at_b.back(), 2);
}

TEST(Transport, RetransmissionsReuseTheSharedFramePayload) {
  Harness h;
  h.a->submit(2, proto::make_message(text_message(1, 5)));
  h.pump([](std::size_t) { return true; });  // drop the initial transmission
  h.a->tick();
  h.a->tick();
  ASSERT_EQ(h.wire.size(), 2u);
  // Both retransmitted act frames carry the *same* message object — the
  // payload is shared, never re-serialized or copied per retransmission.
  EXPECT_EQ(h.wire[0].frame.payload.get(), h.wire[1].frame.payload.get());
  EXPECT_EQ(h.wire[0].frame.label, h.wire[1].frame.label);
}

TEST(Transport, IdempotentResubmitSurvivesCorruptionAndRecovers) {
  // An identical-pointer resubmit stream must never wedge a session, even
  // from an arbitrarily corrupted state: acknowledgments always flow, so a
  // label collision at the receiver resolves and the next content change
  // starts a fresh label.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Harness h;
    Rng rng(seed);
    const proto::MessagePtr stuck = proto::make_message(text_message(1, 50));
    h.a->submit(2, stuck);
    h.pump();
    h.a->corrupt(rng);
    h.b->corrupt(rng);
    // Keep resubmitting the identical payload through the storm.
    for (int round = 0; round < 4; ++round) {
      h.a->submit(2, stuck);
      h.a->tick();
      h.pump();
    }
    // A fresh message must still get through afterwards.
    bool delivered_fresh = false;
    for (int round = 0; round < 6 && !delivered_fresh; ++round) {
      h.a->submit(2, text_message(1, 100 + round));
      h.a->tick();
      h.pump();
      for (int v : h.delivered_at_b) {
        if (v >= 100) delivered_fresh = true;
      }
    }
    EXPECT_TRUE(delivered_fresh) << "seed " << seed;
  }
}

TEST(Transport, RetainOnlyDropsSessions) {
  Harness h;
  h.a->submit(2, text_message(1, 5));
  EXPECT_GT(h.a->session_count(), 0u);
  h.wire.clear();  // discard the initial transmission
  h.a->retain_only({});
  EXPECT_EQ(h.a->session_count(), 0u);
  h.a->tick();  // no sessions left: nothing to retransmit
  EXPECT_TRUE(h.wire.empty());
}

TEST(Transport, RetainOnlyKeepsKeepSetsBeyond4096Peers) {
  // A controller on random_wan:nodes=4096 keeps 4098 peers. With the bound
  // at the node count, a prune keeps every session of such a keep-set; the
  // bound itself still trims an oversized one.
  constexpr NodeId kPeers = 5000;
  Endpoint e(0,
             Endpoint::Hooks{[](NodeId, proto::PayloadPtr, std::uint32_t) {},
                             [](NodeId, proto::MessagePtr) {},
                             [](NodeId) {}});
  e.set_max_sessions(static_cast<std::size_t>(kPeers) + 1);
  const auto msg = proto::make_message(text_message(0, 1));
  std::vector<NodeId> keep;
  for (NodeId p = 1; p <= kPeers; ++p) {
    e.submit(p, msg);
    keep.push_back(p);
  }
  e.retain_only(keep);
  EXPECT_EQ(e.session_count(), static_cast<std::size_t>(kPeers));
  for (NodeId p : {1, 2048, 4097, kPeers}) {
    EXPECT_TRUE(e.debug_send_session(p).exists) << "peer " << p;
  }
  e.set_max_sessions(4096);
  e.retain_only(keep);
  EXPECT_EQ(e.session_count(), 4096u);
}

TEST(Transport, RecoversAfterStateCorruption) {
  // Property sweep: from an arbitrarily corrupted session state, fresh
  // messages flow again after a bounded number of exchanges (Delta_comm).
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Harness h;
    Rng rng(seed);
    // Establish some traffic, then corrupt both ends.
    h.a->submit(2, text_message(1, 1));
    h.pump();
    h.a->corrupt(rng);
    h.b->corrupt(rng);
    // A few rounds of fresh messages + retransmissions.
    bool delivered_fresh = false;
    for (int round = 0; round < 6 && !delivered_fresh; ++round) {
      h.a->submit(2, text_message(1, 100 + round));
      h.a->tick();
      h.pump();
      for (int v : h.delivered_at_b) {
        if (v >= 100) delivered_fresh = true;
      }
    }
    EXPECT_TRUE(delivered_fresh) << "seed " << seed;
  }
}

TEST(Transport, LossyChannelPropertySweep) {
  // Under 30% deterministic-pattern loss, every submitted generation is
  // eventually superseded-or-delivered and the newest value arrives.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Harness h;
    Rng rng(seed);
    int last = 0;
    for (int gen = 1; gen <= 30; ++gen) {
      h.a->submit(2, text_message(1, gen));
      h.a->tick();
      h.pump([&rng](std::size_t) { return rng.chance(0.3); });
      last = gen;
    }
    // Final drain without loss.
    h.a->tick();
    h.pump();
    h.pump();
    ASSERT_FALSE(h.delivered_at_b.empty());
    EXPECT_EQ(h.delivered_at_b.back(), last) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ren::transport
