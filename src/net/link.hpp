// Bidirectional network link with latency, bandwidth, a drop-tail queue and
// a packet-level fault model (omission / duplication / reordering), i.e. the
// "unreliable media" underneath the self-stabilizing transport (Section 3.1).
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::net {

/// Packet-level fault probabilities applied per traversal.
struct LinkFaults {
  double loss = 0.0;       ///< omission probability
  double duplicate = 0.0;  ///< duplication probability
  double reorder = 0.0;    ///< probability of an extra, random delay
  Time reorder_delay_max = 0;  ///< max extra delay for reordered packets
  double corrupt = 0.0;    ///< payload corruption probability (in-band
                           ///< channel faults; see proto/mutate.hpp)
};

struct LinkParams {
  Time latency = 1000;               ///< one-way propagation delay (us)
  double bandwidth_bps = 0.0;        ///< 0 = unlimited
  Time max_queue_delay = 50'000;     ///< drop-tail bound on queued backlog
  LinkFaults faults;
};

/// Operational state (paper: Go vs Gc). `TransientDown` models temporary
/// unavailability (at most kappa at a time); `PermanentDown` models the
/// permanent link failures / removals of Section 3.4. `Blackhole` models
/// the port-down detection window of a real switch: forwarding still
/// selects the link (operational() is true) but every packet is lost —
/// this is what produces the retransmission spike right after a failure.
enum class LinkState : std::uint8_t {
  Up,
  TransientDown,
  PermanentDown,
  Blackhole
};

class Link {
 public:
  Link(int index, NodeId a, NodeId b, LinkParams params)
      : index_(index), a_(a), b_(b), params_(params) {}

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] NodeId a() const { return a_; }
  [[nodiscard]] NodeId b() const { return b_; }
  [[nodiscard]] NodeId other(NodeId n) const { return n == a_ ? b_ : a_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

  /// Swap the fault profile at runtime (harness context only —
  /// scenario events such as channel-corruption storms). Latency, bandwidth
  /// and queue state are untouched, so in-flight packets keep their
  /// schedules.
  void set_faults(const LinkFaults& f) { params_.faults = f; }

  [[nodiscard]] LinkState state() const { return state_; }
  [[nodiscard]] bool operational() const {
    return state_ == LinkState::Up || state_ == LinkState::Blackhole;
  }
  /// True when packets can actually traverse the link right now.
  [[nodiscard]] bool passes_traffic() const { return state_ == LinkState::Up; }
  void set_state(LinkState s) {
    if (s == state_) return;
    state_ = s;
    if (epoch_hook_ != nullptr) ++*epoch_hook_;
  }

  /// Wire the owning Network's topology epoch into this link so that every
  /// state transition bumps it, no matter which layer flips the state.
  void attach_epoch(std::uint64_t* epoch) { epoch_hook_ = epoch; }

  /// Outcome of pushing one packet onto a direction of the link.
  struct TxPlan {
    bool dropped = false;      ///< queue overflow or random omission
    bool duplicated = false;   ///< deliver a second copy
    Time deliver_at = 0;       ///< arrival time of the (first) copy
    Time duplicate_at = 0;     ///< arrival time of the duplicate copy
  };

  /// Compute delivery schedule for `bytes` sent from `from` at time `now`.
  /// Mutates the per-direction queue state (busy-until) and applies faults.
  TxPlan plan_transmission(NodeId from, std::uint32_t bytes, Time now, Rng& rng);

 private:
  int dir(NodeId from) const { return from == a_ ? 0 : 1; }

  int index_;
  NodeId a_, b_;
  LinkParams params_;
  LinkState state_ = LinkState::Up;
  std::uint64_t* epoch_hook_ = nullptr;  ///< owning Network's topology epoch
  std::array<Time, 2> busy_until_{0, 0};
};

}  // namespace ren::net
