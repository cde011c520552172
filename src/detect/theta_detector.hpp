// Local topology discovery with a Theta failure detector (paper
// Section 2.2.1, after Blanchard et al. [16, Section 6]).
//
// Every detection round the node probes each attached port. A neighbor is
// suspected once Theta consecutive rounds passed in which *some other
// neighbor replied* but it did not (the relative-counting rule of the Theta
// detector, which stays meaningful in an asynchronous system). A suspected
// neighbor rejoins the reported neighborhood on its next reply.
//
// Bootstrapping detail: every port starts "unconfirmed" — a neighbor enters
// the reported set Nc(i) only after its first reply. Hosts never answer
// probes, so host-facing ports are automatically excluded from the control
// plane's topology, as in real deployments (LLDP vs. host ports).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "proto/payload.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::detect {

class ThetaDetector {
 public:
  struct Config {
    int theta = 10;  ///< suspicion threshold (paper: 10 small / 30 large nets)
  };

  using SendProbe = std::function<void(NodeId neighbor, proto::Probe probe)>;

  ThetaDetector(NodeId self, Config config) : self_(self), config_(config) {}

  /// Declare the set of attached ports (the configured adjacency). The same
  /// list as the previous call is a no-op.
  void set_candidates(const std::vector<NodeId>& neighbors);

  /// Run one detection round: evaluate the previous round's replies, then
  /// probe every candidate.
  void tick(const SendProbe& send);

  /// Feed a probe reply received from `from`.
  void on_probe_reply(NodeId from);

  /// The reported neighborhood Nc(i): confirmed, unsuspected neighbors.
  [[nodiscard]] std::vector<NodeId> live() const;
  [[nodiscard]] bool is_live(NodeId n) const;

  /// Monotonic liveness epoch: bumps exactly when the reported set live()
  /// changes (a neighbor confirmed, suspected, rehabilitated, or a live
  /// entry dropped from the candidate ports). Detection rounds that leave
  /// the set unchanged leave it untouched — the controller's ViewCache keys
  /// on it to avoid rebuilding views on quiet ticks.
  [[nodiscard]] std::uint64_t liveness_epoch() const { return liveness_epoch_; }

  /// Transient-fault hook: scramble counters and suspicion flags.
  void corrupt(Rng& rng);

 private:
  struct Entry {
    bool confirmed = false;          ///< replied at least once, ever
    bool replied_this_round = false;
    int misses = 0;
    bool suspected = true;           ///< starts suspected until confirmed
  };

  static bool entry_live(const Entry& e) {
    return e.confirmed && !e.suspected;
  }

  NodeId self_;
  Config config_;
  std::map<NodeId, Entry> entries_;  // ordered => deterministic iteration
  std::vector<NodeId> ports_;        ///< the last set_candidates() argument
  std::uint64_t round_ = 0;
  std::uint64_t liveness_epoch_ = 0;
};

}  // namespace ren::detect
