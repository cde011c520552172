#include <gtest/gtest.h>

#include "net/event_queue.hpp"

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

}  // namespace
}  // namespace ren::net
