// Self-stabilizing end-to-end transport (paper Section 3.1).
//
// Implements the token-circulation protocol of the communication-channel
// model: per directed session (sender -> receiver) a single frame
// pkt in {act, ack} is logically in transit. The sender retransmits the
// current Act frame (bounded label l) on every timer tick until the matching
// Ack(l) arrives, then advances to the next label; the receiver delivers a
// frame when its label differs from the last delivered label and always
// acknowledges. Starting from an arbitrary state (corrupted labels, stale
// frames in channels) the session re-synchronizes after a bounded number of
// spurious deliveries / false acknowledgments (the paper's Delta_comm <= 3).
//
// Senders keep one message slot per peer: submitting a new message replaces
// the unacknowledged one in flight. This bounds memory (a self-stabilization
// requirement) and matches Renaissance's semantics, where every command
// batch/query reply carries the full refreshed state and supersedes the
// previous one — which also keeps the channel live while the in-band return
// path is still broken: a repair batch never queues behind an unackable
// predecessor.
//
// Zero-copy payloads: messages enter and leave as shared immutable
// proto::MessagePtr; the Act frame payload (a proto::Payload holding the
// Frame) is built once per (label, message) and reused verbatim by every
// retransmission, so a steady retransmit allocates nothing. Resubmitting the
// *identical* message pointer (the batch planner's reuse path) refreshes the
// supersede slot without a new label or allocation: the frame already in
// flight carries exactly that payload, and receiver-side label
// de-duplication stays intact because acknowledgments always flow, so a
// content change always reaches a fresh label eventually.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>

#include "proto/payload.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::transport {

/// Bounded label space of the alternating-label protocol.
inline constexpr std::uint32_t kLabelDomain = 1u << 16;

class Endpoint {
 public:
  struct Hooks {
    /// Route and transmit one raw frame payload toward `peer` (in-band!).
    /// The payload always holds a proto::Frame; retransmissions of the same
    /// act frame hand over the same immutable payload object. `bytes` is
    /// the payload's wire size, computed once per frame refresh so routing
    /// layers never re-walk the message for sizing.
    std::function<void(NodeId peer, proto::PayloadPtr frame,
                       std::uint32_t bytes)>
        send_frame;
    /// Upcall with a delivered application message.
    std::function<void(NodeId peer, proto::MessagePtr message)> deliver;
    /// Invoked once per *new* outbound message — including an idempotent
    /// resubmit of the identical payload pointer, which is a logical send
    /// even though no new frame state is created — but not per
    /// retransmission; feeds the Fig. 9 communication-overhead accounting.
    std::function<void(NodeId peer)> on_new_message;
  };

  Endpoint(NodeId self, Hooks hooks);

  /// Send the shared immutable `message` reliably to `peer`, superseding
  /// any unacknowledged message to the same peer under a fresh label.
  /// Resubmitting the pointer that is already in flight refreshes that slot
  /// in place: no new label, no allocation.
  void submit(NodeId peer, proto::MessagePtr message);
  /// Convenience overload for freshly built one-off messages.
  void submit(NodeId peer, proto::Message message) {
    submit(peer, proto::make_message(std::move(message)));
  }

  /// Handle an incoming frame that originated at `peer`.
  void on_frame(NodeId peer, const proto::Frame& frame);

  /// Retransmit all unacknowledged Act frames (call on the node's timer).
  void tick();

  /// Drop session state for peers outside `keep_sorted` (bounds memory while
  /// the reachable set shrinks); the algorithm re-creates sessions on
  /// demand. `keep_sorted` must be sorted ascending — the hot path hands in
  /// its already-sorted peer scratch instead of materializing a std::set.
  void retain_only(std::span<const NodeId> keep_sorted);

  /// Bound on per-node session state (per direction). Nodes in a
  /// simulation set it to the node count N at start — a node has at most
  /// one session per peer, and the paper bounds per-node state by N — so
  /// the default 4096 only applies to free-standing endpoints.
  void set_max_sessions(std::size_t bound) { max_sessions_ = bound; }
  [[nodiscard]] std::size_t max_sessions() const { return max_sessions_; }

  [[nodiscard]] bool idle(NodeId peer) const;
  [[nodiscard]] std::size_t session_count() const {
    return send_.size() + recv_.size();
  }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

  /// Debug/test introspection of a send session toward `peer`.
  struct SessionDebug {
    bool exists = false;
    bool inflight = false;
    std::uint32_t label = 0;
  };
  [[nodiscard]] SessionDebug debug_send_session(NodeId peer) const {
    SessionDebug d;
    auto it = send_.find(peer);
    if (it == send_.end()) return d;
    d.exists = true;
    d.inflight = it->second.inflight != nullptr;
    d.label = it->second.label;
    return d;
  }

  /// Transient-fault hook: scramble labels and in-flight slots (tests only).
  void corrupt(Rng& rng);

 private:
  struct SendSession {
    std::uint32_t label = 0;
    proto::MessagePtr inflight;  ///< current Act payload awaiting Ack
    /// The Act frame payload for (label, inflight), built once and reused by
    /// every retransmission. Non-const so a uniquely-owned buffer can be
    /// refilled in place when the label advances.
    std::shared_ptr<proto::Payload> act_frame;
    std::uint32_t act_bytes = 0;  ///< wire size of act_frame, cached
  };
  struct RecvSession {
    std::uint32_t last_label = 0;
    bool delivered_any = false;
    std::shared_ptr<proto::Payload> ack_frame;  ///< reused Ack payload buffer
  };

  void begin_transmission(NodeId peer, SendSession& s, proto::MessagePtr msg);
  void refresh_act_frame(SendSession& s);
  void transmit(NodeId peer, const SendSession& s);

  NodeId self_;
  std::size_t max_sessions_ = 4096;
  Hooks hooks_;
  std::unordered_map<NodeId, SendSession> send_;
  std::unordered_map<NodeId, RecvSession> recv_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace ren::transport
