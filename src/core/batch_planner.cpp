#include "core/batch_planner.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace ren::core {

namespace {

/// In-place message rotation requires exclusive ownership: no packet or
/// transport session still holds the message. Takes the cached non-const
/// pointer itself: binding it to a proto::MessagePtr (shared_ptr<const
/// Message>) would convert through a temporary whose extra reference makes
/// the count never 1.
bool uniquely_owned(const std::shared_ptr<proto::Message>& msg) {
  return msg.use_count() == 1;
}

/// Rotate a cached batch onto a new round: only the newRound/updateRule/
/// query tags change, the command structure (and the shared rule list) is
/// reused verbatim.
void retag(proto::Message& m, proto::Tag tag) {
  auto& b = std::get<proto::CommandBatch>(m);
  for (proto::Command& c : b.commands) {
    if (auto* nr = std::get_if<proto::NewRoundCmd>(&c)) {
      nr->tag = tag;
    } else if (auto* ur = std::get_if<proto::UpdateRuleCmd>(&c)) {
      ur->tag = tag;
    } else if (auto* q = std::get_if<proto::QueryCmd>(&c)) {
      q->tag = tag;
    }
  }
}

}  // namespace

BatchPlanner::BatchPlanner(NodeId self, Config config, Hooks hooks)
    : self_(self), config_(config), hooks_(std::move(hooks)) {}

void BatchPlanner::compute_victims(const proto::QueryReply& m, bool new_round,
                                   const ResView& res_prev,
                                   std::vector<NodeId>& victims) {
  victims.clear();
  if (!config_.memory_adaptive) return;

  // Owners that have rules (the per-controller meta rule counts, as in the
  // paper where it is installed by 'newRound' before any update).
  owners_scratch_.clear();
  for (const auto& s : m.rule_owners) owners_scratch_.push_back(s.cid);
  std::sort(owners_scratch_.begin(), owners_scratch_.end());
  owners_scratch_.erase(
      std::unique(owners_scratch_.begin(), owners_scratch_.end()),
      owners_scratch_.end());
  managers_scratch_.assign(m.managers.begin(), m.managers.end());
  std::sort(managers_scratch_.begin(), managers_scratch_.end());
  managers_scratch_.erase(
      std::unique(managers_scratch_.begin(), managers_scratch_.end()),
      managers_scratch_.end());

  auto contains = [](const std::vector<NodeId>& v, NodeId x) {
    return std::binary_search(v.begin(), v.end(), x);
  };
  // Line 15: M = managers with rules, reachable (on new rounds), plus self.
  auto in_M = [&](NodeId k) {
    if (k == self_) return true;
    if (!contains(managers_scratch_, k) || !contains(owners_scratch_, k)) {
      return false;
    }
    return !(new_round && !res_prev.reachable(k));
  };
  // Lines 16-17, with the seed's atomic eviction: victims = stale managers
  // plus foreign rule owners outside M, deduplicated and ascending (the
  // iteration order of the seed's std::set).
  for (NodeId k : managers_scratch_) {
    if (!in_M(k)) victims.push_back(k);
  }
  for (NodeId k : owners_scratch_) {
    if (k != self_ && !contains(managers_scratch_, k) && !in_M(k)) {
      victims.push_back(k);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (NodeId k : victims) {
    REN_LOG(Debug, "ctrl %d evicts %d @sw %d (newround=%d)", self_, k, m.id,
            (int)new_round);
    hooks_.note_deletion(k);
  }
}

void BatchPlanner::rotate(std::shared_ptr<proto::Message>& msg,
                          proto::Tag tag) {
  // Retag in place when nothing else still references the message
  // (transport acked, frames drained), else clone once: the transport may
  // still hold the old message as its in-flight payload.
  if (uniquely_owned(msg)) {
    ++stats_.rotated;
  } else {
    ++stats_.cloned;
    msg = std::make_shared<proto::Message>(*msg);
  }
  retag(*msg, tag);
}

std::shared_ptr<proto::Message> BatchPlanner::materialize(
    Entry& entry, proto::BatchKey&& key) {
  if (entry.msg != nullptr && entry.key == key) {
    ++stats_.reused;
    return entry.msg;
  }
  if (entry.msg != nullptr && entry.key.same_except_tag(key)) {
    rotate(entry.msg, key.tag);  // only the round tag flipped
  } else {
    ++stats_.rebuilt;
    entry.msg = std::make_shared<proto::Message>(proto::build_batch(self_, key));
  }
  entry.key = std::move(key);
  return entry.msg;
}

void BatchPlanner::rotate_fanout(proto::Tag tag) {
  const bool same_tag = tag == gate_.tag;
  // Deletion accounting (Theorem 1 experiments) counts every sent batch's
  // victims — exactly what a re-derivation would have produced.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Entry* e = planned_entries_[i];
    e->tick = tick_;
    for (NodeId v : e->key.victims) hooks_.note_deletion(v);
    if (same_tag) {
      // Not even the round tag moved: resubmit the identical payload; the
      // transport refreshes its supersede slot without a new label.
      ++stats_.reused;
    } else {
      e->key.tag = tag;
      rotate(e->msg, tag);
    }
    ++stats_.planned;
    hooks_.send(peers_[i], e->msg, e->key.command_count());
  }
}

void BatchPlanner::plan_fanout(const ReplyDb& db, const ResView& refer,
                               const ResView& res_prev, const ResView& fusion,
                               proto::Tag curr_tag, bool new_round,
                               std::uint64_t flows_fingerprint,
                               std::uint64_t data_flow_revision) {
  ++tick_;
  // The fan-out gate: when every input a key derivation reads is unchanged
  // — the three views' content (build_ids travel with slot rotations), the
  // replyDB's management content, the rules provider — all keys are
  // unchanged up to the round tag, and the fan-out is a pure rotation.
  if (gate_.valid && gate_.refer_build == refer.build_id &&
      gate_.prev_build == res_prev.build_id &&
      gate_.fusion_build == fusion.build_id &&
      gate_.mgmt_revision == db.management_revision() &&
      gate_.flows_fingerprint == flows_fingerprint &&
      gate_.data_flow_revision == data_flow_revision &&
      gate_.new_round == new_round) {
    ++stats_.gate_rotations;
    last_was_rotation_ = true;
    rotate_fanout(curr_tag);
    gate_.tag = curr_tag;
    if (config_.paranoid) {
      check_paranoid(db, refer, res_prev, fusion, curr_tag, new_round);
    }
    return;
  }

  ++stats_.full_plans;
  last_was_rotation_ = false;
  peers_.clear();
  planned_entries_.clear();
  for (NodeId n : fusion.reach) {
    if (n != self_) peers_.push_back(n);
  }
  std::sort(peers_.begin(), peers_.end());

  for (NodeId peer : peers_) {
    proto::BatchKey key;
    key.tag = curr_tag;
    key.retention = config_.retention;
    const proto::QueryReply* m =
        refer.reply_ids.count(peer) != 0 ? db.find(peer) : nullptr;
    if (m != nullptr && !m->from_controller) {
      // Lines 14-18: eviction + rule refresh for a replied switch.
      compute_victims(*m, new_round, res_prev, victims_scratch_);
      key.victims = victims_scratch_;
      key.rules = hooks_.rules_for(peer);
    } else {
      auto t = fusion.transit.find(peer);
      if (t != fusion.transit.end() && !t->second) {
        key.query_only = true;  // controllers only answer the query
      } else {
        // Modify-by-neighbor (Section 2.1.1): a discovered switch that has
        // not replied yet still gets a manager entry and a flow back to
        // this controller, installed through its neighbors.
        key.rules = hooks_.rules_for(peer);
      }
    }
    Entry& entry = entries_[peer];
    const std::size_t commands = key.command_count();
    std::shared_ptr<proto::Message> msg = materialize(entry, std::move(key));
    entry.tick = tick_;
    planned_entries_.push_back(&entry);
    ++stats_.planned;
    hooks_.send(peer, msg, commands);
  }

  gate_.valid = true;
  gate_.refer_build = refer.build_id;
  gate_.prev_build = res_prev.build_id;
  gate_.fusion_build = fusion.build_id;
  gate_.mgmt_revision = db.management_revision();
  gate_.flows_fingerprint = flows_fingerprint;
  gate_.data_flow_revision = data_flow_revision;
  gate_.new_round = new_round;
  gate_.tag = curr_tag;

  if (config_.paranoid) {
    check_paranoid(db, refer, res_prev, fusion, curr_tag, new_round);
  }

  // Retire peers that left the fan-out (bounds the cache alongside the
  // transport's retain_only). planned_entries_ pointers stay valid: only
  // non-planned nodes are erased.
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->second.tick == tick_ ? std::next(it) : entries_.erase(it);
  }
}

// --- Differential shadow -----------------------------------------------------
//
// A from-scratch reference written against the seed's original fan-out
// (std::set preparation, per-peer command maps, fresh CommandBatch per
// peer), deliberately independent of the key/rotation machinery under test.
// Every planned batch must encode byte-identically to its shadow.

void BatchPlanner::check_paranoid(const ReplyDb& db, const ResView& refer,
                                  const ResView& res_prev,
                                  const ResView& fusion, proto::Tag curr_tag,
                                  bool new_round) {
  std::map<NodeId, std::vector<proto::Command>> cmds;
  for (NodeId j : refer.reply_ids) {
    const proto::QueryReply* m = db.find(j);
    if (m == nullptr || m->from_controller) continue;
    auto& out = cmds[j];
    std::set<NodeId> owners;
    for (const auto& s : m->rule_owners) owners.insert(s.cid);
    std::set<NodeId> managers(m->managers.begin(), m->managers.end());
    std::set<NodeId> M;
    for (NodeId k : managers) {
      if (owners.count(k) == 0) continue;
      if (new_round && !res_prev.reachable(k)) continue;
      M.insert(k);
    }
    M.insert(self_);
    if (config_.memory_adaptive) {
      std::set<NodeId> victims;
      for (NodeId k : managers) {
        if (M.count(k) == 0) victims.insert(k);
      }
      for (NodeId k : owners) {
        if (M.count(k) == 0 && k != self_) victims.insert(k);
      }
      for (NodeId k : victims) {
        out.push_back(proto::DelMngrCmd{k});
        out.push_back(proto::DelAllRulesCmd{k});
      }
    }
    out.push_back(proto::AddMngrCmd{self_});
    out.push_back(proto::UpdateRuleCmd{hooks_.rules_for(j), curr_tag});
  }

  std::set<NodeId> peers;
  for (NodeId n : fusion.reach) {
    if (n != self_) peers.insert(n);
  }
  for (NodeId peer : peers) {
    if (cmds.count(peer) != 0) continue;
    auto t = fusion.transit.find(peer);
    if (t != fusion.transit.end() && !t->second) continue;  // controller
    auto& c = cmds[peer];
    c.push_back(proto::AddMngrCmd{self_});
    c.push_back(proto::UpdateRuleCmd{hooks_.rules_for(peer), curr_tag});
  }

  for (NodeId peer : peers) {
    proto::CommandBatch batch;
    batch.from = self_;
    batch.commands.push_back(proto::NewRoundCmd{curr_tag, config_.retention});
    if (auto it = cmds.find(peer); it != cmds.end()) {
      for (const auto& c : it->second) batch.commands.push_back(c);
    }
    batch.commands.push_back(proto::QueryCmd{curr_tag});

    auto eit = entries_.find(peer);
    if (eit == entries_.end() || eit->second.tick != tick_ ||
        eit->second.msg == nullptr) {
      throw std::logic_error(
          "BatchPlanner paranoia: no planned batch for peer " +
          std::to_string(peer));
    }
    // The Fig. 9 accounting: the count the planner reported to the send
    // hook is the key's, so it must match the oracle batch too.
    if (eit->second.key.command_count() != batch.commands.size()) {
      throw std::logic_error(
          "BatchPlanner paranoia: key command count " +
          std::to_string(eit->second.key.command_count()) +
          " != from-scratch batch size " +
          std::to_string(batch.commands.size()) + " for peer " +
          std::to_string(peer));
    }
    std::string want, got;
    proto::debug_encode(proto::Message{std::move(batch)}, want);
    proto::debug_encode(*eit->second.msg, got);
    if (want != got) {
      throw std::logic_error(
          "BatchPlanner paranoia: planned batch diverges from the "
          "from-scratch build for peer " +
          std::to_string(peer));
    }
    ++stats_.paranoid_checks;
  }
  // The planner must not have sent to anyone the shadow would not.
  for (const auto& [peer, entry] : entries_) {
    if (entry.tick == tick_ && peers.count(peer) == 0) {
      throw std::logic_error(
          "BatchPlanner paranoia: batch planned for non-recipient peer " +
          std::to_string(peer));
    }
  }
}

}  // namespace ren::core
