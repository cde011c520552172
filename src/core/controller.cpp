#include "core/controller.hpp"

#include <algorithm>

namespace ren::core {

Controller::Controller(NodeId id, Config config)
    : transport::InBandNode(id, NodeKind::Controller, config.task_delay,
                            config.detect_interval, config.theta),
      config_(config),
      tags_(id),
      db_(ReplyDb::Config{config.max_replies, config.memory_adaptive}),
      compiler_(flows::RuleCompiler::Config{config.kappa}),
      views_(id),
      planner_(id,
               BatchPlanner::Config{config.rule_retention,
                                    config.memory_adaptive,
                                    config.paranoid},
               BatchPlanner::Hooks{
                   [this](NodeId j) { return rules_for_switch(j); },
                   [this](NodeId victim) { note_deletion(victim); },
                   [this](NodeId peer, proto::MessagePtr msg,
                          std::size_t commands) {
                     sim_->counters().ctrl_commands_sent[static_cast<
                         std::size_t>(this->id())] += commands;
                     endpoint_.submit(peer, std::move(msg));
                   }}) {
  views_.set_paranoid(config_.paranoid);
  curr_tag_ = tags_.next();
  prev_tag_ = proto::kNullTag;
}

// --- View maintenance -------------------------------------------------------
//
// The res/fusion views are materialized by the ViewCache at most once per
// (replyDB revision, tags, liveness epoch) state; every consumer below calls
// refresh_views() first and reads the shared cached instances.

void Controller::refresh_views() {
  views_.refresh(db_, curr_tag_, prev_tag_, detector_);
}

void Controller::prune_transport_sessions(const std::vector<NodeId>& peers) {
  keep_scratch_.assign(peers.begin(), peers.end());
  for (const auto& e : sim_->network().adjacency(id())) {
    keep_scratch_.push_back(e.neighbor);
  }
  std::sort(keep_scratch_.begin(), keep_scratch_.end());
  keep_scratch_.erase(std::unique(keep_scratch_.begin(), keep_scratch_.end()),
                      keep_scratch_.end());
  endpoint_.retain_only(keep_scratch_);
}

void Controller::prune_reply_db() {
  // Line 8: drop replies that are unreachable in their tag's view (O(1)
  // membership against the precomputed reachability) or carry a stale tag.
  const ResView& res_curr = views_.res_curr();
  const ResView& res_prev = views_.res_prev();
  db_.erase_if([&](const proto::QueryReply& m) {
    if (m.id == id()) return true;  // self is synthesized, never stored
    if (m.tag_for_querier == curr_tag_) return !res_curr.reachable(m.id);
    if (m.tag_for_querier == prev_tag_) return !res_prev.reachable(m.id);
    return true;  // stale tag
  });
}

bool Controller::round_complete() const {
  // Line 10: every node reachable in G(res(currTag)) has replied with
  // currTag (the self record stands in for p_i's own reply).
  const ResView& res = views_.res_curr();
  for (NodeId n : res.reach) {
    if (n == id()) continue;
    if (res.reply_ids.count(n) == 0) return false;
  }
  return true;
}

// --- The do-forever body -----------------------------------------------------

void Controller::run_iteration() {
  ++stats_.iterations;
  ++sim_->counters().iterations[static_cast<std::size_t>(id())];

  refresh_views();
  prune_reply_db();  // line 8 (may bump the replyDB revision)

  bool new_round = false;  // lines 9-12
  refresh_views();         // no-op unless pruning erased something
  if (round_complete()) {
    new_round = true;
    ++stats_.rounds_started;
    prev_tag_ = curr_tag_;
    curr_tag_ = tags_.next();
    db_.erase_if([this](const proto::QueryReply& m) {
      return m.tag_for_querier == curr_tag_;
    });
    refresh_views();  // a clean flip reuses the cached views
  }

  // Line 13: reference tag selection.
  const ResView& res_prev = views_.res_prev();
  const ResView& fusion = views_.fusion();
  const bool topo_stable = &fusion == &res_prev || fusion.view == res_prev.view;
  const ResView& refer = topo_stable ? res_prev : views_.res_curr();
  if (!(fusion_view_ == fusion.view)) {
    fusion_view_ = fusion.view;
    ++change_epoch_;
  }

  // myRules() for the reference view; also drives the controller's own
  // first-hop routing.
  const flows::CompiledFlowsPtr prior_flows = current_flows_;
  current_flows_ = compiler_.compile_cached(refer.view, id(), refer.transit);
  if (current_flows_ != prior_flows) ++change_epoch_;
  rebuild_merged_rules(refer.view, refer.transit);

  // Lines 14-19 via the batch planner: each per-peer batch is assembled at
  // most once per input-state change; unchanged batches are resubmitted as
  // the identical shared payload, round flips rotate in place. The flows
  // fingerprint + data-flow revision identify rules_for_switch's output
  // (exactly the key rebuild_merged_rules caches on).
  if (fanout_probe_) fanout_probe_(true);
  planner_.plan_fanout(
      db_, refer, res_prev, fusion, curr_tag_, new_round,
      current_flows_ != nullptr ? current_flows_->view_fingerprint : ~0ULL,
      data_flow_revision_);
  if (!planner_.last_was_rotation()) {
    // The recipients changed: re-derive the transport keep-set (sessions
    // only for current peers and physically attached neighbors). On gate
    // rotations the peer set (and thus the keep-set) is unchanged, so the
    // prune would be a no-op sweep.
    prune_transport_sessions(planner_.last_peers());
  }
  if (fanout_probe_) fanout_probe_(false);
}

void Controller::run_task() {
  if (frozen_) return;
  if (iteration_probe_) iteration_probe_(true);
  run_iteration();
  if (iteration_probe_) iteration_probe_(false);
}

void Controller::note_deletion(NodeId victim) {
  ++stats_.deletions_sent;
  if (liveness_oracle_ && liveness_oracle_(victim)) {
    ++stats_.illegitimate_deletions;
  }
}

void Controller::rebuild_merged_rules(
    const flows::TopoView& refer_view,
    const std::map<NodeId, bool>& refer_transit) {
  if (current_flows_ == nullptr) return;
  const std::uint64_t fp = current_flows_->view_fingerprint;
  if (merged_fingerprint_ == fp && merged_revision_ == data_flow_revision_)
    return;
  merged_fingerprint_ = fp;
  merged_revision_ = data_flow_revision_;
  ++change_epoch_;
  merged_rules_.clear();
  if (data_flows_.empty()) return;  // rules_for_switch falls through
  merged_rules_ = merge_data_flows(current_flows_->per_switch, data_flows_,
                                   compiler_, refer_view, id(), refer_transit);
}

std::map<NodeId, proto::RuleListPtr> merge_data_flows(
    const std::map<NodeId, proto::RuleListPtr>& control,
    const std::vector<Controller::DataFlowSpec>& data_flows,
    const flows::RuleCompiler& compiler, const flows::TopoView& view,
    NodeId owner, const std::map<NodeId, bool>& transit) {
  std::map<NodeId, proto::RuleList> merged;
  for (const auto& [sid, list] : control) merged[sid] = *list;
  for (const auto& spec : data_flows) {
    const flows::DataFlow df =
        compiler.compile_data_flow(view, owner, spec.host_a, spec.attach_a,
                                   spec.host_b, spec.attach_b, transit);
    for (const auto& [sid, list] : df.per_switch) {
      auto& dst = merged[sid];
      dst.insert(dst.end(), list->begin(), list->end());
    }
  }
  std::map<NodeId, proto::RuleListPtr> out;
  for (auto& [sid, list] : merged) {
    std::sort(list.begin(), list.end(), flows::rule_order);
    out[sid] = std::make_shared<const proto::RuleList>(std::move(list));
  }
  return out;
}

proto::RuleListPtr Controller::rules_for_switch(NodeId j) {
  if (!data_flows_.empty()) {
    auto it = merged_rules_.find(j);
    if (it != merged_rules_.end()) return it->second;
  }
  if (current_flows_ != nullptr) {
    auto it = current_flows_->per_switch.find(j);
    if (it != current_flows_->per_switch.end()) return it->second;
  }
  static const proto::RuleListPtr kEmpty =
      std::make_shared<const proto::RuleList>();
  return kEmpty;
}

void Controller::register_data_flow(const DataFlowSpec& spec) {
  data_flows_.push_back(spec);
  ++data_flow_revision_;
  ++change_epoch_;
}

// --- Message handling --------------------------------------------------------

void Controller::on_message(NodeId peer, const proto::MessagePtr& message) {
  if (const auto* reply = std::get_if<proto::QueryReply>(&*message)) {
    // Lines 20-22: capacity check (C-reset) before the tag check.
    db_.make_room(reply->id);
    if (reply->tag_for_querier == curr_tag_) {
      ++stats_.replies_accepted;
      db_.store(*reply);
    } else {
      ++stats_.replies_discarded_tag;
    }
    return;
  }
  const auto* batch = std::get_if<proto::CommandBatch>(&*message);
  if (batch == nullptr) return;
  // Line 23: controllers answer queries with their local neighborhood and
  // the echoed tag; all other commands are ignored.
  for (const auto& cmd : batch->commands) {
    if (const auto* q = std::get_if<proto::QueryCmd>(&cmd)) {
      proto::QueryReply reply;
      reply.tag_for_querier = q->tag;
      answer_query(peer, std::move(reply));
    }
  }
}

NodeId Controller::rule_hop(const net::Packet& packet) {
  if (current_flows_ == nullptr) return kNoNode;
  auto it = current_flows_->first_hops.find(packet.dst);
  if (it == current_flows_->first_hops.end()) return kNoNode;
  for (NodeId h : it->second) {
    if (sim_->network().link_operational(id(), h)) return h;
  }
  return kNoNode;
}

void Controller::corrupt_state(Rng& rng, NodeId node_space) {
  db_.corrupt(rng, node_space);
  if (rng.chance(0.5)) tags_.corrupt(rng);
  if (rng.chance(0.5)) {
    curr_tag_ = proto::Tag{
        static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(node_space))),
        static_cast<std::uint32_t>(rng.next_below(proto::kTagDomain))};
  }
  if (rng.chance(0.5)) {
    prev_tag_ = proto::Tag{
        static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(node_space))),
        static_cast<std::uint32_t>(rng.next_below(proto::kTagDomain))};
  }
  endpoint_.corrupt(rng);
  detector_.corrupt(rng);
  if (rng.chance(0.5)) current_flows_.reset();
  if (rng.chance(0.5)) last_port_.clear();
  merged_fingerprint_ = 0;
  merged_revision_ = ~0ULL;
  views_.invalidate();    // direct tampering bypasses the revision/epoch keys
  planner_.invalidate();  // cached batches may describe tampered state
  ++change_epoch_;        // corruption may have touched anything
}

}  // namespace ren::core
