// Packet-level TCP Reno model (paper Section 6.4.3).
//
// The throughput experiments of Figs. 15-20 measure how a long-lived TCP
// Reno flow reacts to a mid-path link failure with fast-failover rules in
// place. This model implements the mechanisms those figures exercise:
// slow start, congestion avoidance, duplicate-ack fast retransmit, Reno
// fast recovery (window halving), RTO with exponential backoff and go-back-N
// resend, cumulative acks with out-of-order reassembly at the receiver, and
// the Wireshark-style accounting the paper reports: retransmission share
// (Fig. 18), "BAD TCP" share (Fig. 19: retransmissions + duplicate acks +
// spurious retransmissions), and out-of-order share (Fig. 20).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/simulator.hpp"
#include "proto/payload.hpp"
#include "util/types.hpp"

namespace ren::tcp {

// The modeled flow's fixed parameters (the Section 6.4.3 setup).
inline constexpr std::uint32_t kMss = 8960;  ///< large-MTU segments (paper: 64KB MTU)
inline constexpr std::uint64_t kRwnd = 1u << 20;  ///< receiver window (bytes)
inline constexpr std::uint32_t kInitCwndMss = 4;
inline constexpr Time kRtoMin = msec(200);
inline constexpr Time kRtoMax = sec(4);

/// Per-second accounting buckets (the paper plots everything per second).
struct SecondStats {
  std::uint64_t goodput_bytes = 0;   ///< newly acked bytes (Fig. 15/16)
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0; ///< Fig. 18 numerator
  std::uint64_t received = 0;        ///< segments arriving at the receiver
  std::uint64_t out_of_order = 0;    ///< Fig. 20 numerator
  std::uint64_t spurious = 0;        ///< already-acked data received
  std::uint64_t dup_acks = 0;        ///< duplicate acks generated
};

class FlowStats {
 public:
  explicit FlowStats(Time start) : start_(start) {}

  [[nodiscard]] Time start() const { return start_; }
  SecondStats& bucket(Time now);
  [[nodiscard]] const std::vector<SecondStats>& buckets() const {
    return buckets_;
  }
  /// Throughput series in Mbit/s, one value per full second [0, seconds).
  [[nodiscard]] std::vector<double> mbits_series(int seconds) const;
  /// Percentage series helpers for Figs. 18-20.
  [[nodiscard]] std::vector<double> retransmission_pct(int seconds) const;
  [[nodiscard]] std::vector<double> bad_tcp_pct(int seconds) const;
  [[nodiscard]] std::vector<double> out_of_order_pct(int seconds) const;

 private:
  Time start_;
  std::vector<SecondStats> buckets_;
};

/// Sender side. `send` transmits one segment toward the peer (the Host
/// wires this to the simulator); timers run on the simulator directly.
class RenoSender {
 public:
  using SendFn = std::function<void(proto::Segment)>;

  RenoSender(net::Simulator& sim, NodeId self, FlowStats* stats,
             SendFn send);

  /// Begin transmitting an unbounded byte stream at time `at`.
  void start(Time at);
  void stop() { running_ = false; }

  void on_ack(const proto::Segment& ack);

  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return snd_una_; }

 private:
  void pump();
  void send_segment(std::uint64_t seq, bool retransmit);
  void arm_rto();
  void on_rto(std::uint64_t epoch);

  net::Simulator& sim_;
  NodeId self_;
  FlowStats* stats_;
  SendFn send_;

  bool running_ = false;
  std::uint64_t snd_una_ = 0;   ///< oldest unacked byte
  std::uint64_t snd_nxt_ = 0;   ///< next byte to send
  std::uint64_t snd_max_ = 0;   ///< highest byte ever transmitted
  double cwnd_ = 0;
  double ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;

  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time rto_ = 0;
  std::uint64_t rto_epoch_ = 0;

  /// seq_end -> (sent_at, was_retransmitted); for RTT sampling (Karn).
  std::map<std::uint64_t, std::pair<Time, bool>> inflight_times_;
};

/// Receiver side: cumulative acks + bounded reassembly buffer.
class RenoReceiver {
 public:
  using SendFn = std::function<void(proto::Segment)>;

  RenoReceiver(net::Simulator& sim, FlowStats* stats, SendFn send);

  void on_segment(const proto::Segment& seg);

  [[nodiscard]] std::uint64_t rcv_next() const { return rcv_nxt_; }

 private:
  net::Simulator& sim_;
  FlowStats* stats_;
  SendFn send_;
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t last_ack_sent_ = ~0ULL;
  std::map<std::uint64_t, std::uint32_t> reassembly_;  // seq -> len
};

}  // namespace ren::tcp
