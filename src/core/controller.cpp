#include "core/controller.hpp"

#include <algorithm>

#include "faults/adversary.hpp"

namespace ren::core {

Controller::Controller(NodeId id, Config config)
    : net::Node(id, NodeKind::Controller),
      config_(config),
      tags_(id),
      db_(ReplyDb::Config{config.max_replies, config.memory_adaptive}),
      detector_(id, detect::ThetaDetector::Config{config.theta}),
      endpoint_(
          id, transport::Config{},
          transport::Endpoint::Hooks{
              [this](NodeId peer, proto::PayloadPtr f, std::uint32_t bytes) {
                route_frame(peer, std::move(f), bytes);
              },
              [this](NodeId peer, proto::MessagePtr m) {
                if (const auto* reply = std::get_if<proto::QueryReply>(&*m)) {
                  on_reply(*reply);
                } else if (const auto* batch =
                               std::get_if<proto::CommandBatch>(&*m)) {
                  on_peer_batch(peer, *batch);
                }
              },
              [this](NodeId) {
                ++sim_->counters().ctrl_messages_sent[static_cast<std::size_t>(
                    this->id())];
              }}),
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

void Controller::start() {
  endpoint_.set_max_sessions(sim_->node_count());
  const Time it_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(config_.task_delay)));
  const Time det_off = static_cast<Time>(sim_->node_rng(id()).next_below(
      static_cast<std::uint64_t>(config_.detect_interval)));
  sim_->schedule_for(id(), it_off, [this] { iterate(); });
  sim_->schedule_for(id(), det_off, [this] { detect_tick(); });
}

void Controller::detect_tick() {
  std::vector<NodeId> ports;
  for (const auto& e : sim_->network().adjacency(id())) {
    ports.push_back(e.neighbor);
  }
  detector_.set_candidates(ports);
  detector_.tick([this](NodeId nbr, proto::Probe p) {
    sim_->send(id(), nbr, net::make_packet(id(), nbr, proto::Payload{p}));
  });
  sim_->schedule_for(id(), config_.detect_interval, [this] { detect_tick(); });
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
    refresh_views();  // clean flips rotate slots instead of rebuilding
  }

  // Line 13: reference tag selection.
  const ResView& res_prev = views_.res_prev();
  const ResView& fusion = views_.fusion();
  const bool topo_stable =
      views_.fusion_aliases_prev() || fusion.view == res_prev.view;
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

void Controller::iterate() {
  if (!frozen_) {
    if (iteration_probe_) iteration_probe_(true);
    run_iteration();
    if (iteration_probe_) iteration_probe_(false);
  }
  endpoint_.tick();  // retransmit unacknowledged frames
  sim_->schedule_for(id(), config_.task_delay, [this] { iterate(); });
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

void Controller::on_reply(proto::QueryReply reply) {
  // Lines 20-22: capacity check (C-reset) before the tag check.
  db_.make_room(reply.id);
  if (reply.tag_for_querier == curr_tag_) {
    ++stats_.replies_accepted;
    db_.store(std::move(reply));
  } else {
    ++stats_.replies_discarded_tag;
  }
}

void Controller::on_peer_batch(NodeId from, const proto::CommandBatch& batch) {
  // Line 23: controllers answer queries with their local neighborhood and
  // the echoed tag; all other commands are ignored.
  for (const auto& cmd : batch.commands) {
    if (const auto* q = std::get_if<proto::QueryCmd>(&cmd)) {
      proto::QueryReply reply;
      reply.id = id();
      reply.nc = detector_.live();
      reply.from_controller = true;
      reply.tag_for_querier = q->tag;
      // Byzantine interposition: a lying/equivocating controller forges the
      // advertised neighborhood or the per-querier round tag right here,
      // before the reply enters the transport.
      if (adversary_ != nullptr) adversary_->tamper_reply(from, reply);
      endpoint_.submit(from, proto::Message{std::move(reply)});
    }
  }
}

void Controller::route_frame(NodeId peer, proto::PayloadPtr frame,
                             std::uint32_t bytes) {
  // Byzantine interposition on the outbound frame path: a corrupting
  // adversary field-permutes the frame (deep copy; the shared original is
  // untouched), a babbler remembers it and may replay an older one first.
  if (adversary_ != nullptr) {
    if (proto::PayloadPtr forged = adversary_->corrupt_frame(*frame)) {
      frame = std::move(forged);
    }
    if (auto replay = adversary_->note_and_babble(peer, frame, bytes)) {
      emit_frame(replay->peer, std::move(replay->frame), replay->bytes);
    }
  }
  emit_frame(peer, std::move(frame), bytes);
}

void Controller::emit_frame(NodeId peer, proto::PayloadPtr frame,
                            std::uint32_t bytes) {
  net::Packet pkt = net::make_packet(id(), peer, std::move(frame), bytes);
  auto& counters = sim_->counters();
  counters.control_bytes_sent += pkt.bytes;
  counters.max_control_message_bytes =
      std::max<std::uint64_t>(counters.max_control_message_bytes, pkt.bytes);

  // 1. Adjacent peer: direct hand-over.
  if (sim_->network().link_operational(id(), peer)) {
    sim_->send(id(), peer, pkt);
    return;
  }
  // 2. First hops from the compiled flows (fast-failover order).
  if (current_flows_ != nullptr) {
    auto it = current_flows_->first_hops.find(peer);
    if (it != current_flows_->first_hops.end()) {
      for (NodeId h : it->second) {
        if (sim_->network().link_operational(id(), h)) {
          sim_->send(id(), h, pkt);
          return;
        }
      }
    }
  }
  // 3. Reverse-path hint.
  auto it = last_port_.find(peer);
  if (it != last_port_.end() &&
      sim_->network().link_operational(id(), it->second)) {
    sim_->send(id(), it->second, pkt);
    return;
  }
  ++sim_->counters().drops_no_rule;
}

void Controller::on_packet(NodeId from_neighbor, const net::Packet& packet) {
  if (packet.dst != id()) {
    // Controllers never relay traffic (paper: relay nodes are switches).
    ++sim_->counters().drops_no_rule;
    return;
  }
  if (const auto* frame = std::get_if<proto::Frame>(&*packet.payload)) {
    last_port_[packet.src] = from_neighbor;
    endpoint_.on_frame(packet.src, *frame);
  } else if (const auto* probe = std::get_if<proto::Probe>(&*packet.payload)) {
    sim_->send(id(), from_neighbor,
               net::make_packet(id(), from_neighbor,
                                proto::Payload{proto::ProbeReply{probe->round}}));
  } else if (std::get_if<proto::ProbeReply>(&*packet.payload) != nullptr) {
    detector_.on_probe_reply(from_neighbor);
  }
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
