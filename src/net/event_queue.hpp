// Deterministic discrete-event queue.
//
// Events fire in (time, lane, lane sequence) order. The lane identifies the
// scheduling context — lane 0 is the harness/global lane, lane `id + 1` the
// per-node lane — and the sequence number is that lane's monotonic schedule
// counter. The key is *content-based*: it depends only on who scheduled what,
// so the total event order (and therefore every run) is bit-for-bit
// reproducible. Within a lane, ties at equal time keep insertion order, which
// is what the pre-lane kernel guaranteed globally.
//
// Two event classes share one heap: general closures (timers, scheduled
// actions) and packet deliveries. Packet deliveries are the dominant class
// by far, and a std::function closure would cost a heap allocation plus a
// payload copy per hop; instead they are stored inline (the Packet payload
// is a shared immutable pointer, so moving an event moves two pointers) and
// dispatched by the simulator, or — for standalone use — through one
// installed handler.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace ren::net {

class EventQueue {
 public:
  using Action = std::function<void()>;
  /// Installed once for standalone use (step()); receives packet events.
  using PacketHandler =
      std::function<void(NodeId from, NodeId to, int link, Packet& packet)>;

  /// The harness/global lane. Node `id` schedules on lane `id + 1`.
  static constexpr std::int32_t kGlobalLane = 0;

  struct Event {
    Time at = 0;
    std::int32_t lane = kGlobalLane;
    std::uint64_t seq = 0;
    Action action;  ///< general event; empty for packet events
    Packet packet;  ///< packet event payload (action empty)
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    int link = -1;

    [[nodiscard]] bool is_packet() const { return !action; }
  };

  void set_packet_handler(PacketHandler handler) {
    packet_handler_ = std::move(handler);
  }

  /// Schedule `action` at absolute time `at` on the global lane with this
  /// queue's own sequence counter (standalone use, and the simulator's
  /// harness events).
  void schedule_at(Time at, Action action);

  /// Schedule `action` with an externally assigned (lane, seq) key — the
  /// simulator owns the per-node lane counters.
  void schedule_at(Time at, Action action, std::int32_t lane,
                   std::uint64_t seq);

  /// Allocation-free fast path: deliver `packet` (from -> to over `link`)
  /// at time `at`. Without an explicit key: global lane, own counter.
  void schedule_packet(Time at, NodeId from, NodeId to, int link,
                       Packet packet);
  void schedule_packet(Time at, NodeId from, NodeId to, int link,
                       Packet packet, std::int32_t lane, std::uint64_t seq);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Current simulated time (time of the last executed event).
  [[nodiscard]] Time now() const { return now_; }

  /// Time of the next pending event, or kTimeNever when empty.
  [[nodiscard]] Time next_time() const;

  /// Pop the next event into `out` (advances now(), counts it as executed).
  /// Returns false when empty.
  bool pop(Event& out);

  /// pop(), but only while the next event's time is <= `limit`.
  bool pop_until(Time limit, Event& out);

  /// Standalone drive: pop and dispatch the next event (action directly,
  /// packets through the installed handler); false when empty.
  bool step();

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  void push(Event&& ev);

  // A std::push_heap/pop_heap heap rather than std::priority_queue: the
  // queue's top() is const, which would force a copy of the event (and its
  // closure) per step; pop_heap lets the event be moved out.
  std::vector<Event> heap_;
  PacketHandler packet_handler_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ren::net
