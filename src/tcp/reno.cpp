#include "tcp/reno.hpp"

#include <algorithm>

namespace ren::tcp {

// --- FlowStats ---------------------------------------------------------------

SecondStats& FlowStats::bucket(Time now) {
  auto idx = static_cast<std::size_t>(std::max<Time>(0, now - start_) / sec(1));
  if (buckets_.size() <= idx) buckets_.resize(idx + 1);
  return buckets_[idx];
}

std::vector<double> FlowStats::mbits_series(int seconds) const {
  std::vector<double> out(static_cast<std::size_t>(seconds), 0.0);
  for (std::size_t i = 0; i < out.size() && i < buckets_.size(); ++i) {
    out[i] = static_cast<double>(buckets_[i].goodput_bytes) * 8.0 / 1e6;
  }
  return out;
}

namespace {
std::vector<double> pct_series(const std::vector<SecondStats>& buckets,
                               int seconds,
                               std::uint64_t (*num)(const SecondStats&),
                               std::uint64_t (*den)(const SecondStats&)) {
  std::vector<double> out(static_cast<std::size_t>(seconds), 0.0);
  for (std::size_t i = 0; i < out.size() && i < buckets.size(); ++i) {
    const auto d = den(buckets[i]);
    if (d > 0) out[i] = 100.0 * static_cast<double>(num(buckets[i])) /
                        static_cast<double>(d);
  }
  return out;
}
}  // namespace

std::vector<double> FlowStats::retransmission_pct(int seconds) const {
  return pct_series(
      buckets_, seconds,
      [](const SecondStats& b) { return b.retransmissions; },
      [](const SecondStats& b) { return std::max<std::uint64_t>(b.segments_sent, 1); });
}

std::vector<double> FlowStats::bad_tcp_pct(int seconds) const {
  return pct_series(
      buckets_, seconds,
      [](const SecondStats& b) {
        return b.retransmissions + b.dup_acks + b.spurious;
      },
      [](const SecondStats& b) {
        return std::max<std::uint64_t>(b.segments_sent + b.received, 1);
      });
}

std::vector<double> FlowStats::out_of_order_pct(int seconds) const {
  return pct_series(
      buckets_, seconds,
      [](const SecondStats& b) { return b.out_of_order; },
      [](const SecondStats& b) { return std::max<std::uint64_t>(b.received, 1); });
}

// --- RenoSender --------------------------------------------------------------

RenoSender::RenoSender(net::Simulator& sim, NodeId self, FlowStats* stats,
                       SendFn send)
    : sim_(sim),
      self_(self),
      stats_(stats),
      send_(std::move(send)) {
  cwnd_ = static_cast<double>(kInitCwndMss) * kMss;
  ssthresh_ = static_cast<double>(kRwnd);
  rto_ = sec(1);
}

void RenoSender::start(Time at) {
  running_ = true;
  sim_.schedule_at(at, [this] {
    pump();
    arm_rto();
  });
}

void RenoSender::pump() {
  if (!running_) return;
  const auto window = static_cast<std::uint64_t>(
      std::min(cwnd_, static_cast<double>(kRwnd)));
  while (snd_nxt_ + kMss <= snd_una_ + window) {
    send_segment(snd_nxt_, false);
    snd_nxt_ += kMss;
  }
}

void RenoSender::send_segment(std::uint64_t seq, bool retransmit) {
  // Wireshark-style accounting: any send of data at or below the highest
  // byte already transmitted is a retransmission (covers go-back-N resends
  // after an RTO, not just explicit fast retransmits).
  retransmit = retransmit || (seq + kMss <= snd_max_);
  snd_max_ = std::max(snd_max_, seq + kMss);
  proto::Segment s;
  s.seq = seq;
  s.len = kMss;
  s.is_ack = false;
  s.sent_at = sim_.now();
  s.retransmit = retransmit;
  auto& b = stats_->bucket(sim_.now());
  ++b.segments_sent;
  if (retransmit) ++b.retransmissions;
  // RTT sampling state (Karn: never sample retransmitted sequence ranges).
  auto [it, inserted] =
      inflight_times_.emplace(seq + kMss,
                              std::make_pair(sim_.now(), retransmit));
  if (!inserted) it->second.second = true;  // mark range as retransmitted
  send_(std::move(s));
}

void RenoSender::arm_rto() {
  const std::uint64_t epoch = ++rto_epoch_;
  sim_.schedule(rto_, [this, epoch] { on_rto(epoch); });
}

void RenoSender::on_rto(std::uint64_t epoch) {
  if (!running_ || epoch != rto_epoch_) return;  // re-armed since
  if (snd_nxt_ == snd_una_) {                    // nothing outstanding
    arm_rto();
    return;
  }
  // Timeout: multiplicative backoff, go-back-N from the hole.
  ssthresh_ = std::max((static_cast<double>(snd_nxt_ - snd_una_)) / 2.0,
                       2.0 * kMss);
  cwnd_ = kMss;
  dup_acks_ = 0;
  in_recovery_ = false;
  snd_nxt_ = snd_una_;
  inflight_times_.clear();
  rto_ = std::min<Time>(rto_ * 2, kRtoMax);
  send_segment(snd_una_, true);
  snd_nxt_ = snd_una_ + kMss;
  arm_rto();
}

void RenoSender::on_ack(const proto::Segment& ack) {
  if (!running_) return;
  const std::uint64_t a = ack.ack;
  if (a > snd_una_) {
    // New data acknowledged.
    const std::uint64_t acked = a - snd_una_;
    stats_->bucket(sim_.now()).goodput_bytes += acked;
    // RTT sample for a never-retransmitted range ending exactly at `a`.
    auto it = inflight_times_.find(a);
    if (it != inflight_times_.end() && !it->second.second) {
      const Time sample = sim_.now() - it->second.first;
      if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
      } else {
        const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
      }
      rto_ = std::clamp<Time>(srtt_ + 4 * rttvar_, kRtoMin,
                              kRtoMax);
    }
    inflight_times_.erase(inflight_times_.begin(),
                          inflight_times_.upper_bound(a));
    snd_una_ = a;
    dup_acks_ = 0;
    if (in_recovery_) {
      if (a >= recover_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ack (NewReno-style): retransmit the next hole, deflate.
        send_segment(snd_una_, true);
        cwnd_ = std::max(cwnd_ - static_cast<double>(acked) + kMss,
                         static_cast<double>(kMss));
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += kMss;  // slow start
    } else {
      cwnd_ += static_cast<double>(kMss) * kMss / cwnd_;
    }
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    arm_rto();
    pump();
    return;
  }
  // Duplicate ack.
  if (snd_nxt_ == snd_una_) return;  // nothing outstanding; stale ack
  ++dup_acks_;
  if (in_recovery_) {
    cwnd_ += kMss;  // window inflation
    pump();
  } else if (dup_acks_ == 3) {
    // Fast retransmit + fast recovery.
    ssthresh_ = std::max((static_cast<double>(snd_nxt_ - snd_una_)) / 2.0,
                         2.0 * kMss);
    send_segment(snd_una_, true);
    cwnd_ = ssthresh_ + 3.0 * kMss;
    in_recovery_ = true;
    recover_point_ = snd_nxt_;
  }
}

// --- RenoReceiver -----------------------------------------------------------

RenoReceiver::RenoReceiver(net::Simulator& sim, FlowStats* stats, SendFn send)
    : sim_(sim), stats_(stats), send_(std::move(send)) {}

void RenoReceiver::on_segment(const proto::Segment& seg) {
  auto& b = stats_->bucket(sim_.now());
  ++b.received;
  if (seg.seq == rcv_nxt_) {
    rcv_nxt_ += seg.len;
    // Drain the reassembly buffer while contiguous.
    auto it = reassembly_.begin();
    while (it != reassembly_.end() && it->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, it->first + it->second);
      it = reassembly_.erase(it);
    }
  } else if (seg.seq > rcv_nxt_) {
    ++b.out_of_order;
    if (reassembly_.size() < 4096) reassembly_[seg.seq] = seg.len;
  } else {
    ++b.spurious;  // duplicate of already-delivered data
  }

  proto::Segment ack;
  ack.is_ack = true;
  ack.ack = rcv_nxt_;
  ack.len = 0;
  ack.sent_at = sim_.now();
  if (last_ack_sent_ == rcv_nxt_) ++b.dup_acks;
  last_ack_sent_ = rcv_nxt_;
  send_(std::move(ack));
}

}  // namespace ren::tcp
