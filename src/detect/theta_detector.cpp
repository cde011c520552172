#include "detect/theta_detector.hpp"

#include <algorithm>

namespace ren::detect {

void ThetaDetector::set_candidates(const std::vector<NodeId>& neighbors) {
  // The node re-declares its ports every round and they rarely change.
  if (neighbors == ports_) return;
  ports_ = neighbors;
  // Keep state for surviving candidates; add fresh entries for new ones.
  // Dropping a live entry changes the reported set (fresh entries start
  // suspected, so additions never do).
  std::map<NodeId, Entry> next;
  for (NodeId n : neighbors) {
    auto it = entries_.find(n);
    next[n] = (it != entries_.end()) ? it->second : Entry{};
  }
  for (const auto& [n, e] : entries_) {
    if (entry_live(e) && next.count(n) == 0) {
      ++liveness_epoch_;
      break;
    }
  }
  entries_ = std::move(next);
}

void ThetaDetector::tick(const SendProbe& send) {
  // Evaluate the round that just ended.
  const bool any_replied =
      std::any_of(entries_.begin(), entries_.end(),
                  [](const auto& kv) { return kv.second.replied_this_round; });
  bool live_changed = false;
  for (auto& [n, e] : entries_) {
    const bool was_live = entry_live(e);
    if (e.replied_this_round) {
      e.suspected = false;
      e.misses = 0;
    } else if (any_replied && e.confirmed) {
      // Relative evidence: others answered, this one did not.
      if (++e.misses >= config_.theta) e.suspected = true;
    }
    e.replied_this_round = false;
    live_changed = live_changed || entry_live(e) != was_live;
  }
  if (live_changed) ++liveness_epoch_;
  ++round_;
  for (auto& [n, e] : entries_) send(n, proto::Probe{round_});
}

void ThetaDetector::on_probe_reply(NodeId from) {
  auto it = entries_.find(from);
  if (it == entries_.end()) return;  // not an attached port
  const bool was_live = entry_live(it->second);
  it->second.confirmed = true;
  it->second.replied_this_round = true;
  if (entry_live(it->second) != was_live) ++liveness_epoch_;
}

std::vector<NodeId> ThetaDetector::live() const {
  std::vector<NodeId> out;
  for (const auto& [n, e] : entries_) {
    if (e.confirmed && !e.suspected) out.push_back(n);
  }
  return out;
}

bool ThetaDetector::is_live(NodeId n) const {
  auto it = entries_.find(n);
  return it != entries_.end() && it->second.confirmed && !it->second.suspected;
}

void ThetaDetector::corrupt(Rng& rng) {
  ++liveness_epoch_;  // scrambling may change the reported set arbitrarily
  for (auto& [n, e] : entries_) {
    e.confirmed = rng.chance(0.5);
    e.suspected = rng.chance(0.5);
    e.misses = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(config_.theta + 1)));
  }
}

}  // namespace ren::detect
