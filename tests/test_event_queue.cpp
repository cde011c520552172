#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "net/event_queue.hpp"
#include "util/rng.hpp"

namespace ren::net {
namespace {

/// Pop the next event and run its action (these tests schedule only
/// actions); false when the queue is empty.
bool run_next(EventQueue& q) {
  EventQueue::Event ev;
  if (!q.pop(ev)) return false;
  ev.action();
  return true;
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (run_next(q)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (run_next(q)) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  Time seen = -1;
  q.schedule_at(100, [&] {});
  run_next(q);
  q.schedule_at(50, [&, t = &seen] { *t = q.now(); });  // in the past
  run_next(q);
  EXPECT_EQ(seen, 100);  // executed at now, not before
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_at(2, [&] { ++fired; });
  });
  while (run_next(q)) {
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, NextTimeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
  q.schedule_at(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  EXPECT_FALSE(q.empty());
  EXPECT_TRUE(run_next(q));
  EXPECT_FALSE(run_next(q));
}

TEST(EventQueue, RandomScheduleMatchesSortedOracle) {
  // Interleave closure, guarded-closure and packet schedules with pops at
  // random: few lanes and a narrow time window give many equal times, past
  // times exercise the clamp, and a shallow queue reuses slab slots heavily.
  // Each pop must return the (at, lane, seq)-least pending event of a plain
  // sorted oracle, with every field it was scheduled with.
  struct Ref {
    Time at = 0;
    std::int32_t lane = 0;
    std::uint64_t seq = 0;
    int id = 0;
    bool packet = false;
    bool guarded = false;
  };
  const auto key = [](const Ref& r) { return std::tie(r.at, r.lane, r.seq); };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EventQueue q;
    Rng rng(seed);
    std::vector<Ref> pending;
    std::vector<std::uint64_t> lane_seq(4, 0);  // lanes 1..3 (0 unused)
    std::uint64_t global_seq = 0;
    int fired = -1;
    int next_id = 0;
    std::size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
      if (rng.next_below(20) < 11 && !pending.empty()) {
        std::sort(pending.begin(), pending.end(),
                  [&](const Ref& a, const Ref& b) { return key(a) < key(b); });
        const Ref want = pending.front();
        pending.erase(pending.begin());
        EventQueue::Event ev;
        ASSERT_TRUE(q.pop(ev));
        ASSERT_EQ(ev.at, want.at) << "step " << step;
        ASSERT_EQ(ev.lane, want.lane);
        ASSERT_EQ(ev.seq, want.seq);
        ASSERT_EQ(ev.is_packet(), want.packet);
        EXPECT_EQ(q.now(), want.at);
        if (want.packet) {
          const int id = want.id;
          EXPECT_EQ(ev.from, id % 7);
          EXPECT_EQ(ev.to, id % 11);
          EXPECT_EQ(ev.link, id % 13);
          EXPECT_EQ(ev.packet.src, id % 17);
          EXPECT_EQ(ev.packet.dst, id % 19);
          EXPECT_EQ(ev.packet.ttl, id % 23);
          EXPECT_EQ(ev.packet.bytes, static_cast<std::uint32_t>(id));
          ASSERT_NE(ev.packet.payload, nullptr);
          EXPECT_EQ(std::get<proto::Probe>(*ev.packet.payload).round,
                    static_cast<std::uint64_t>(id));
          EXPECT_EQ(ev.guard, kNoNode);
        } else {
          ev.action();
          EXPECT_EQ(fired, want.id);
          EXPECT_EQ(ev.guard, want.guarded ? want.id % 5 : kNoNode);
          EXPECT_EQ(ev.incarnation,
                    want.guarded ? static_cast<std::uint32_t>(want.id % 3)
                                 : 0u);
        }
        continue;
      }
      Ref r;
      r.id = next_id++;
      // Up to 3 ticks in the past (clamped to now) or 8 ahead.
      const Time at = q.now() + static_cast<Time>(rng.next_below(12)) - 3;
      r.at = std::max(at, q.now());
      switch (rng.next_below(4)) {
        case 0:  // harness closure on the queue's own global counter
          r.lane = EventQueue::kGlobalLane;
          r.seq = global_seq++;
          q.schedule_at(at, [&fired, id = r.id] { fired = id; });
          break;
        case 1: {  // guarded node closure
          r.lane = static_cast<std::int32_t>(1 + rng.next_below(3));
          r.seq = lane_seq[static_cast<std::size_t>(r.lane)]++;
          r.guarded = true;
          q.schedule_at(at, [&fired, id = r.id] { fired = id; }, r.lane,
                        r.seq, r.id % 5,
                        static_cast<std::uint32_t>(r.id % 3));
          break;
        }
        default: {  // packet delivery
          r.lane = static_cast<std::int32_t>(1 + rng.next_below(3));
          r.seq = lane_seq[static_cast<std::size_t>(r.lane)]++;
          r.packet = true;
          Packet p;
          p.src = r.id % 17;
          p.dst = r.id % 19;
          p.ttl = r.id % 23;
          p.bytes = static_cast<std::uint32_t>(r.id);
          p.payload = std::make_shared<const proto::Payload>(
              proto::Probe{static_cast<std::uint64_t>(r.id)});
          q.schedule_packet(at, r.id % 7, r.id % 11, r.id % 13, std::move(p),
                            r.lane, r.seq);
          break;
        }
      }
      pending.push_back(r);
      peak = std::max(peak, pending.size());
      EXPECT_EQ(q.size(), pending.size());
    }
    // Drain: the rest comes out in fully sorted order.
    std::sort(pending.begin(), pending.end(),
              [&](const Ref& a, const Ref& b) { return key(a) < key(b); });
    for (const Ref& want : pending) {
      EventQueue::Event ev;
      ASSERT_TRUE(q.pop(ev));
      EXPECT_EQ(std::tie(ev.at, ev.lane, ev.seq), key(want));
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), static_cast<std::uint64_t>(next_id));
    // ~9000 schedules through a queue that never held more than a few
    // dozen: slab slots were reused many times over.
    EXPECT_LT(peak * 20, static_cast<std::size_t>(next_id)) << peak;
  }
}

TEST(EventQueue, WideScheduleMatchesSortedOracle) {
  // Times reach several wheel spans ahead, so events go to the far heap,
  // migrate into the wheel as now() advances, and land in buckets after
  // the wheel wrapped. Some are parked at kTimeNever, some pushed at now()
  // mid-drain on a lane below the one just popped, and pop_until runs at
  // random limits. After every step next_time(), size() and each popped
  // (at, lane, seq) must match a plain sorted oracle.
  struct Ref {
    Time at = 0;
    std::int32_t lane = 0;
    std::uint64_t seq = 0;
  };
  const auto key = [](const Ref& r) { return std::tie(r.at, r.lane, r.seq); };
  const auto by_key = [&](const Ref& a, const Ref& b) {
    return key(a) < key(b);
  };
  constexpr Time kSpan = EventQueue::kSpan;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EventQueue q;
    Rng rng(seed);
    std::vector<Ref> pending;  // kept sorted
    std::vector<std::uint64_t> lane_seq(6, 0);
    std::uint64_t global_seq = 0;
    bool packet = false;
    const auto push = [&](Time at, std::int32_t lane) {
      Ref r;
      r.at = std::max(at, q.now());
      r.lane = lane;
      if (lane == EventQueue::kGlobalLane) {
        r.seq = global_seq++;
        q.schedule_at(at, [] {});
      } else if ((packet = !packet)) {
        r.seq = lane_seq[static_cast<std::size_t>(lane)]++;
        q.schedule_packet(at, 0, 1, 0, Packet{}, lane, r.seq);
      } else {
        r.seq = lane_seq[static_cast<std::size_t>(lane)]++;
        q.schedule_at(at, [] {}, lane, r.seq);
      }
      pending.insert(
          std::upper_bound(pending.begin(), pending.end(), r, by_key), r);
    };
    const auto check = [&](const EventQueue::Event& ev, int step) {
      ASSERT_FALSE(pending.empty()) << "step " << step;
      const Ref want = pending.front();
      pending.erase(pending.begin());
      ASSERT_EQ(std::tie(ev.at, ev.lane, ev.seq), key(want)) << "step " << step;
      ASSERT_EQ(q.now(), want.at);
    };
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t op = rng.next_below(20);
      if (op < 9) {
        // A schedule: near now, up to several spans out, at the span's
        // edge, parked at kTimeNever, or in the past.
        const auto lane = static_cast<std::int32_t>(rng.next_below(6));
        const std::uint64_t reach = rng.next_below(10);
        Time at = q.now();
        if (reach < 4) {
          at += static_cast<Time>(rng.next_below(64));
        } else if (reach < 6) {
          at += static_cast<Time>(rng.next_below(4 * kSpan));
        } else if (reach < 8) {  // either side of the wheel's far edge
          at += kSpan - 64 + static_cast<Time>(rng.next_below(128));
        } else if (reach < 9) {
          at = kTimeNever;
        } else {
          at -= static_cast<Time>(rng.next_below(5));
        }
        push(at, lane);
      } else if (op < 17) {
        // A pop_until at a limit that is sometimes below the next event.
        Time limit = kTimeNever - 1;
        if (rng.next_below(4) != 0) {
          limit = q.now() + static_cast<Time>(rng.next_below(2 * kSpan));
        }
        const bool want = !pending.empty() && pending.front().at <= limit;
        EventQueue::Event ev;
        ASSERT_EQ(q.pop_until(limit, ev), want) << "step " << step;
        if (!want) continue;
        check(ev, step);
        // Mid-drain pushes at now() on lanes at or below the popped one.
        for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
          push(q.now(), static_cast<std::int32_t>(rng.next_below(
                            static_cast<std::uint64_t>(ev.lane) + 1)));
        }
      } else if (!pending.empty() && pending.front().at != kTimeNever) {
        EventQueue::Event ev;  // an unbounded pop short of the parked events
        ASSERT_TRUE(q.pop(ev));
        check(ev, step);
      }
      ASSERT_EQ(q.size(), pending.size()) << "step " << step;
      ASSERT_EQ(q.next_time(),
                pending.empty() ? kTimeNever : pending.front().at)
          << "step " << step;
    }
    // Drain, parked events last; then push at kTimeNever itself.
    EventQueue::Event ev;
    while (q.pop(ev)) check(ev, -1);
    ASSERT_TRUE(pending.empty());
    EXPECT_EQ(q.now(), kTimeNever);
    push(kTimeNever, 3);
    push(0, 1);  // clamps to kTimeNever
    ASSERT_TRUE(q.pop(ev));
    check(ev, -1);
    ASSERT_TRUE(q.pop(ev));
    check(ev, -1);
    EXPECT_TRUE(q.empty());
    // The schedules reached the far heap, and most stayed in the wheel.
    EXPECT_GT(q.far_pushes() * 10, q.executed());
    EXPECT_LT(q.far_pushes() * 2, q.executed());
  }
}

}  // namespace
}  // namespace ren::net
