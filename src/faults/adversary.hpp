// Byzantine adversary model (ROADMAP: "Byzantine fault family").
//
// An `Adversary` attaches to one controller or switch and tampers with its
// outbound control traffic from *inside* the node — the regime MORPH
// (Sakic et al.) identifies as the one that actually breaks SDN control
// planes, and the one Renaissance's self-stabilization claim must survive.
// Four modes:
//
//   Lying         forged query replies: dropped/invented neighborhood
//                 entries and stale rule-owner summaries, so honest
//                 controllers build wrong views (advertised ReplyDb state).
//   Equivocating  different round tags to different peers: the reply tag is
//                 skewed by a peer-derived offset, so no two queriers agree
//                 on the adversary's round.
//   Corrupting    field-permuted frames before encode (proto/mutate.hpp):
//                 structurally valid, semantically wrong messages on the
//                 wire.
//   Babbling      replay of previously sent frames: every outbound frame is
//                 remembered in a bounded ring and old ones are re-sent,
//                 stressing the transport's duplicate suppression.
//
// Determinism: each adversary owns a private RNG stream derived with
// `Rng::stream_seed` from the trial seed and its node id, and interposes
// only inside its host node's event handlers — which execute on the node's
// own lane — so trials stay bit-reproducible and benign nodes' RNG streams
// are untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "proto/messages.hpp"
#include "proto/payload.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::faults {

enum class AdversaryMode {
  Lying,
  Equivocating,
  Corrupting,
  Babbling,
};

[[nodiscard]] const char* to_string(AdversaryMode m);

/// Parses "lying" / "equivocating" / "corrupting" / "babbling".
/// Throws std::invalid_argument for anything else.
[[nodiscard]] AdversaryMode adversary_mode_from_string(const std::string& s);

class Adversary {
 public:
  struct Config {
    AdversaryMode mode = AdversaryMode::Lying;
    double intensity = 1.0;  ///< per-interposition tamper probability
    int replay_depth = 8;    ///< Babbling: remembered-frame ring size
  };

  /// `node_space` bounds forged node ids (typically `sim.node_count()`);
  /// `trial_seed` plus `self` derive the private RNG stream.
  Adversary(NodeId self, NodeId node_space, Config cfg,
            std::uint64_t trial_seed);

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] AdversaryMode mode() const { return cfg_.mode; }

  /// Lying / Equivocating: tamper with a query reply about to be submitted
  /// to `peer`. Returns true when the reply was modified.
  bool tamper_reply(NodeId peer, proto::QueryReply& reply);

  /// Corrupting: maybe replace an outbound payload with a field-permuted
  /// deep copy. Returns nullptr when the frame should go out untouched.
  [[nodiscard]] proto::PayloadPtr corrupt_frame(const proto::Payload& p);

  /// Babbling: remember this outbound frame and maybe pick a previously
  /// sent one to replay to its original peer. Must be called exactly once
  /// per outbound frame (in the node's send path) so the ring — and thus
  /// the trial — stays deterministic.
  struct Replay {
    NodeId peer = kNoNode;
    proto::PayloadPtr frame;
    std::uint32_t bytes = 0;
  };
  [[nodiscard]] std::optional<Replay> note_and_babble(
      NodeId peer, const proto::PayloadPtr& frame, std::uint32_t bytes);

 private:
  NodeId self_;
  NodeId node_space_;
  Config cfg_;
  Rng rng_;
  std::vector<Replay> ring_;  ///< Babbling history, ring_pos_ is next slot
  std::size_t ring_pos_ = 0;
};

}  // namespace ren::faults
