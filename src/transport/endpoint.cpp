#include "transport/endpoint.hpp"

#include <algorithm>
#include <utility>

namespace ren::transport {

namespace {

/// Refill `slot` with `frame` in place when the buffer is uniquely owned
/// (no packet still rides it through the network), else allocate a fresh
/// one. The in-place path assigns the Frame members directly instead of
/// re-constructing the variant.
void refill(std::shared_ptr<proto::Payload>& slot, proto::Frame&& frame) {
  if (slot && slot.use_count() == 1) {
    if (auto* f = std::get_if<proto::Frame>(slot.get())) {
      *f = std::move(frame);
    } else {
      *slot = proto::Payload{std::move(frame)};
    }
  } else {
    slot = std::make_shared<proto::Payload>(proto::Payload{std::move(frame)});
  }
}

}  // namespace

Endpoint::Endpoint(NodeId self, Config config, Hooks hooks)
    : self_(self), config_(config), hooks_(std::move(hooks)) {}

void Endpoint::submit(NodeId peer, proto::MessagePtr message) {
  SendSession& s = send_[peer];
  if (config_.supersede_inflight && message != nullptr &&
      message == s.inflight) {
    // Idempotent resubmit: the exact payload object is already the in-flight
    // act frame, so the newest-state-supersedes contract is vacuous. Count
    // the logical send, re-emit the cached frame (the seed transmitted on
    // every submit) and keep the label: the receiver either delivers the
    // frame once or has already delivered-and-acked it, and since receivers
    // always acknowledge, a stuck label never outlives the session — the
    // next *content* change starts a fresh transmission as usual.
    if (hooks_.on_new_message) hooks_.on_new_message(peer);
    transmit(peer, s);
    return;
  }
  if (message != nullptr && message == s.next) {
    return;  // already queued as the superseding message
  }
  if (!s.inflight || config_.supersede_inflight) {
    begin_transmission(peer, s, std::move(message));
  } else {
    s.next = std::move(message);  // supersede any queued message
  }
}

void Endpoint::begin_transmission(NodeId peer, SendSession& s,
                                  proto::MessagePtr msg) {
  s.label = (s.label + 1) % config_.label_domain;
  s.inflight = std::move(msg);
  refresh_act_frame(s);
  if (hooks_.on_new_message) hooks_.on_new_message(peer);
  transmit(peer, s);
}

void Endpoint::refresh_act_frame(SendSession& s) {
  refill(s.act_frame,
         proto::Frame{proto::FrameKind::Act, s.label, s.inflight});
  s.act_bytes = static_cast<std::uint32_t>(proto::wire_size(*s.act_frame));
}

void Endpoint::transmit(NodeId peer, const SendSession& s) {
  hooks_.send_frame(peer, s.act_frame, s.act_bytes);
}

void Endpoint::on_frame(NodeId peer, const proto::Frame& frame) {
  if (frame.kind == proto::FrameKind::Act) {
    // Always acknowledge; deliver only fresh labels.
    RecvSession& r = recv_[peer];
    refill(r.ack_frame,
           proto::Frame{proto::FrameKind::Ack, frame.label, nullptr});
    hooks_.send_frame(peer, r.ack_frame,
                      static_cast<std::uint32_t>(proto::wire_size(*r.ack_frame)));

    if (!r.delivered_any || r.last_label != frame.label) {
      r.last_label = frame.label;
      r.delivered_any = true;
      if (frame.payload && hooks_.deliver) hooks_.deliver(peer, frame.payload);
    }
    return;
  }
  // Ack: completes the round-trip for the current label only.
  auto it = send_.find(peer);
  if (it == send_.end()) return;
  SendSession& s = it->second;
  if (s.inflight && frame.label == s.label) {
    s.inflight.reset();
    // Release the act frame's message reference so the producer (the batch
    // planner) sees the payload as uniquely owned again and can rotate it
    // in place; keep the payload buffer itself for reuse when possible.
    if (s.act_frame) {
      if (s.act_frame.use_count() == 1) {
        std::get<proto::Frame>(*s.act_frame).payload.reset();
      } else {
        s.act_frame.reset();
      }
    }
    if (s.next) {
      proto::MessagePtr next = std::move(s.next);
      s.next.reset();
      begin_transmission(peer, s, std::move(next));
    }
  }
}

void Endpoint::tick() {
  for (auto& [peer, s] : send_) {
    if (s.inflight) {
      ++retransmissions_;
      transmit(peer, s);
    }
  }
}

void Endpoint::retain_only(std::span<const NodeId> keep_sorted) {
  auto kept = [&](NodeId n) {
    return std::binary_search(keep_sorted.begin(), keep_sorted.end(), n);
  };
  for (auto it = send_.begin(); it != send_.end();) {
    it = kept(it->first) ? std::next(it) : send_.erase(it);
  }
  for (auto it = recv_.begin(); it != recv_.end();) {
    it = kept(it->first) ? std::next(it) : recv_.erase(it);
  }
  // Hard bound, even if the caller's keep-set is oversized.
  while (send_.size() > config_.max_sessions) send_.erase(send_.begin());
  while (recv_.size() > config_.max_sessions) recv_.erase(recv_.begin());
}

bool Endpoint::idle(NodeId peer) const {
  auto it = send_.find(peer);
  return it == send_.end() || !it->second.inflight;
}

void Endpoint::corrupt(Rng& rng) {
  for (auto& [peer, s] : send_) {
    s.label = static_cast<std::uint32_t>(rng.next_below(config_.label_domain));
    if (rng.chance(0.5)) s.inflight.reset();
    // Keep retransmissions in sync with the (possibly scrambled) session
    // state, as the seed did by rebuilding the frame from s.label each send.
    if (s.inflight) {
      refresh_act_frame(s);
    } else {
      s.act_frame.reset();
    }
  }
  for (auto& [peer, r] : recv_) {
    r.last_label = static_cast<std::uint32_t>(rng.next_below(config_.label_domain));
    r.delivered_any = rng.chance(0.5);
  }
}

}  // namespace ren::transport
