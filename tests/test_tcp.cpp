#include <gtest/gtest.h>

#include "net/simulator.hpp"
#include "tcp/reno.hpp"

namespace ren::tcp {
namespace {

/// Direct sender<->receiver harness over an ideal in-memory pipe with a
/// configurable one-way delay; no network stack involved.
struct Pipe {
  explicit Pipe(net::Simulator& s, Time delay = msec(5))
      : sim(s), stats(0) {
    receiver = std::make_unique<RenoReceiver>(
        sim, &stats, [this](proto::Segment seg) {
          sim.schedule(delay_, [this, seg] {
            if (!drop_acks) sender->on_ack(seg);
          });
        });
    sender = std::make_unique<RenoSender>(
        sim, 0, &stats, [this](proto::Segment seg) {
          sim.schedule(delay_, [this, seg] {
            if (drop_data_until > sim.now()) return;
            if (drop_next > 0) {
              --drop_next;
              return;
            }
            receiver->on_segment(seg);
          });
        });
    delay_ = delay;
  }
  net::Simulator& sim;
  FlowStats stats;
  std::unique_ptr<RenoSender> sender;
  std::unique_ptr<RenoReceiver> receiver;
  Time delay_ = msec(5);
  int drop_next = 0;
  Time drop_data_until = 0;
  bool drop_acks = false;
};

TEST(Reno, SlowStartGrowsWindowExponentially) {
  net::Simulator sim(1);
  Pipe p(sim);
  const double cwnd0 = p.sender->cwnd();
  p.sender->start(0);
  sim.run_until(msec(45));  // ~4 RTTs
  EXPECT_GT(p.sender->cwnd(), cwnd0 * 4);
  EXPECT_GT(p.sender->bytes_acked(), 0u);
}

TEST(Reno, ThroughputIsWindowLimited) {
  net::Simulator sim(1);
  Pipe p(sim, msec(10));  // RTT 20ms, kRwnd = 1 MiB
  p.sender->start(0);
  sim.run_until(sec(5));
  const double mbps = static_cast<double>(p.sender->bytes_acked()) * 8.0 /
                      to_seconds(sim.now()) / 1e6;
  // rwnd/RTT = 1MiB/20ms = ~419 Mbit/s.
  EXPECT_NEAR(mbps, 419.0, 45.0);
}

TEST(Reno, FastRetransmitOnTripleDupack) {
  net::Simulator sim(1);
  Pipe p(sim);
  p.sender->start(0);
  sim.run_until(msec(100));
  p.drop_next = 1;  // lose exactly one segment
  sim.run_until(msec(300));
  const auto& buckets = p.stats.buckets();
  std::uint64_t retx = 0, rto_like = 0;
  for (const auto& b : buckets) retx += b.retransmissions;
  EXPECT_GE(retx, 1u);
  // Recovery should be fast-retransmit, not a stall: goodput continues.
  (void)rto_like;
  EXPECT_GT(p.sender->bytes_acked(), 2u << 20);
}

TEST(Reno, WindowHalvesOnLoss) {
  net::Simulator sim(1);
  Pipe p(sim);
  p.sender->start(0);
  sim.run_until(msec(400));
  const double before = p.sender->cwnd();
  p.drop_next = 1;
  sim.run_until(msec(600));
  EXPECT_LT(p.sender->cwnd(), before);
}

TEST(Reno, RtoRecoversFromBlackout) {
  net::Simulator sim(1);
  Pipe p(sim);
  p.sender->start(0);
  sim.run_until(msec(200));
  const auto acked_mid = p.sender->bytes_acked();
  p.drop_data_until = sim.now() + msec(800);  // total blackout
  sim.run_until(sec(3));
  EXPECT_GT(p.sender->bytes_acked(), acked_mid) << "never recovered from RTO";
}

TEST(Reno, ReceiverCountsOutOfOrder) {
  net::Simulator sim(1);
  FlowStats stats(0);
  std::vector<proto::Segment> acks;
  RenoReceiver r(sim, &stats,
                 [&acks](proto::Segment s) { acks.push_back(s); });
  proto::Segment s1{0, kMss, 0, false, 0, false};
  proto::Segment s2{kMss, kMss, 0, false, 0, false};
  proto::Segment s3{2ull * kMss, kMss, 0, false, 0, false};
  r.on_segment(s1);
  r.on_segment(s3);  // gap
  r.on_segment(s2);  // fills the gap
  EXPECT_EQ(r.rcv_next(), 3ull * kMss);
  EXPECT_EQ(stats.buckets()[0].out_of_order, 1u);
  EXPECT_EQ(stats.buckets()[0].dup_acks, 1u);  // the ack for s3
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks.back().ack, 3ull * kMss);
}

TEST(Reno, ReceiverCountsSpuriousRetransmissions) {
  net::Simulator sim(1);
  FlowStats stats(0);
  RenoReceiver r(sim, &stats, [](proto::Segment) {});
  proto::Segment s1{0, kMss, 0, false, 0, false};
  r.on_segment(s1);
  r.on_segment(s1);  // duplicate delivery
  EXPECT_EQ(stats.buckets()[0].spurious, 1u);
}

TEST(FlowStats, BucketsByWholeSeconds) {
  FlowStats st(sec(10));
  st.bucket(sec(10)).goodput_bytes += 1000;
  st.bucket(sec(10) + msec(999)).goodput_bytes += 1000;
  st.bucket(sec(11)).goodput_bytes += 5000;
  const auto series = st.mbits_series(2);
  EXPECT_DOUBLE_EQ(series[0], 2000 * 8.0 / 1e6);
  EXPECT_DOUBLE_EQ(series[1], 5000 * 8.0 / 1e6);
}

TEST(FlowStats, PercentSeriesGuardAgainstEmptyBuckets) {
  FlowStats st(0);
  const auto retx = st.retransmission_pct(5);
  for (double v : retx) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace ren::tcp
