// The simulation kernel: owns the event queue, the network, the nodes, the
// RNG streams and the counters.
//
// One queue pops events in deterministic (time, lane, lane-seq) order on the
// calling thread — the paper's one-atomic-step interleaving model. Harness
// events (fault injection, monitors, churn ticks) sit on the global lane 0,
// which sorts first at equal time; node `id` schedules on lane `id + 1` with
// its own sequence counter, and every per-packet draw comes from the
// sender's Rng::stream_seed stream. The key is content-derived, so the event
// order depends only on who scheduled what.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/event_queue.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::net {

/// Global accounting used by the benches (Fig. 9 communication overhead,
/// drop diagnostics, Lemma 3 message sizes).
struct Counters {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_dead_node = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_no_rule = 0;
  std::uint64_t drops_ambiguous_rule = 0;
  std::uint64_t packets_corrupted = 0;  ///< in-band channel corruption hits
  std::uint64_t control_bytes_sent = 0;
  std::uint64_t max_control_message_bytes = 0;

  /// Application-level control messages originated per node (transport Act
  /// frames carrying a Message). Indexed by NodeId.
  std::vector<std::uint64_t> ctrl_messages_sent;
  /// Individual controller commands issued per node (newRound, addMngr,
  /// updateRule, query, ...). Indexed by NodeId; drives the Fig. 9 metric.
  std::vector<std::uint64_t> ctrl_commands_sent;
  /// Completed do-forever iterations per node. Indexed by NodeId.
  std::vector<std::uint64_t> iterations;

  void ensure_nodes(std::size_t n) {
    if (ctrl_messages_sent.size() < n) ctrl_messages_sent.resize(n, 0);
    if (ctrl_commands_sent.size() < n) ctrl_commands_sent.resize(n, 0);
    if (iterations.size() < n) iterations.resize(n, 0);
  }

  /// Digest of every field — the per-trial Counters identity the kernel
  /// pin and the determinism tests compare.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- time & events --------------------------------------------------------
  /// The time of the last executed event.
  [[nodiscard]] Time now() const { return queue_.now(); }
  void schedule(Time delay, EventQueue::Action action) {
    schedule_at(now() + delay, std::move(action));
  }
  /// Schedule an action. From node context the event stays on that node's
  /// lane; from the harness or a global event it goes to the global lane.
  void schedule_at(Time at, EventQueue::Action action);
  /// Schedule an action that is silently skipped if the node has fail-stopped
  /// or been revived since (its incarnation moved on). Always keyed to
  /// `node`'s lane and run in `node`'s context, whatever the scheduling
  /// context.
  void schedule_for(NodeId node, Time delay, std::function<void()> action);

  /// Run until simulated time `t` (events at exactly t are executed).
  void run_until(Time t);
  /// Time of the next pending event, or kTimeNever when the queue is empty.
  /// Note now() only advances by executing events, so a caller stepping in
  /// fixed increments must consult this to skip quiet gaps.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::uint64_t events_executed() const {
    return queue_.executed();
  }

  // --- topology --------------------------------------------------------------
  /// Transfer ownership of a node into the simulator. The node's id must
  /// equal the current node count (dense ids).
  NodeId add_node(std::unique_ptr<Node> node);

  template <typename T, typename... Args>
  T& emplace_node(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    add_node(std::move(owned));
    return ref;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Node& node(NodeId id) const {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  int add_link(NodeId a, NodeId b, const LinkParams& params);
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }

  // --- failures ----------------------------------------------------------------
  /// Fail-stop a node: it stops taking steps and all its links go down
  /// permanently (the paper's node-removal semantics, Section 3.4.2).
  /// Harness context only.
  void kill_node(NodeId id);

  /// Bring a fail-stopped node back: it keeps the (stale) state it crashed
  /// with and restarts its timers. Links are NOT restored here — the faults
  /// layer tracks which links each kill took down and restores exactly those
  /// (faults::restart_node). Harness context only.
  void revive_node(NodeId id);

  /// Change the state of the a-b link. Throws if the link does not exist.
  /// Harness context only.
  void set_link_state(NodeId a, NodeId b, LinkState state);

  // --- services ---------------------------------------------------------------
  /// The harness stream (topology synthesis, fault selection, tests). Node
  /// code must use node_rng()/its own stream — the kernel's send path does.
  [[nodiscard]] Rng& rng() { return rng_; }
  /// The node's own deterministic stream, seeded Rng::stream_seed(seed, id).
  [[nodiscard]] Rng& node_rng(NodeId id) {
    return node_rngs_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] Counters& counters() { return counters_; }

  /// Transmit `packet` from `from` to its direct neighbor `to`. Applies
  /// link state, bandwidth/queueing and the packet fault model; delivery
  /// invokes `Node::on_packet` on the receiver. All randomness comes from
  /// `from`'s stream.
  void send(NodeId from, NodeId to, Packet packet);

 private:
  static constexpr std::int32_t lane_of(NodeId id) { return id + 1; }

  /// Run one popped event in its context: a node-lane action or a packet
  /// delivery executes as its node, a global-lane action as the harness.
  /// A guarded action whose node is dead or re-incarnated is skipped.
  void execute(EventQueue::Event& ev);
  /// Packet-event endpoint: link/liveness checks at delivery time, then
  /// Node::on_packet (the deferred half of send()).
  void deliver_packet(NodeId from, NodeId to, int link, Packet& packet);

  EventQueue queue_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Rng rng_;
  std::vector<Rng> node_rngs_;
  /// Per-lane monotonic schedule counters (index = NodeId).
  std::vector<std::uint64_t> node_seq_;
  std::uint64_t seed_;
  Counters counters_;
  /// The node whose event is executing; kNoNode for the harness and for
  /// global-lane events. Picks an event's lane in schedule_at().
  NodeId current_node_ = kNoNode;
};

}  // namespace ren::net
