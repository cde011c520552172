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
// Two event classes share one queue: general closures (timers, scheduled
// actions) and packet deliveries. Packet deliveries are the dominant class
// by far, and a std::function closure would cost a heap allocation plus a
// payload copy per hop; instead they are stored inline (the Packet payload
// is a shared immutable pointer, so moving an event moves two pointers) and
// dispatched by the simulator, which pops every event.
//
// Layout: the event bodies (closure, packet, endpoints, timer guard) sit in
// a slab and never move while queued. Freed slots go on a free list and are
// reused, so the slab is as large as the peak number of pending events.
// Order keys live in three tiers by distance from now():
//   - due: the events at now(), in one vector sorted by (lane, seq) once
//     when their timestamp becomes current. A push at now() goes in by
//     binary search, so it still pops in key order.
//   - wheel: times in (now, now + kSpan), one bucket per 1 µs timestamp.
//     Each bucket is an intrusive singly-linked list threaded through the
//     slab (one link per slot); a two-level occupancy bitmap finds the next
//     non-empty bucket with ctz. Link hops and Θ probes land here.
//   - far: a binary heap of 24-byte keys for everything later — long timers
//     and events parked at kTimeNever — and, until the first pop, for every
//     push not due now. When now() advances, the far events that come
//     within the span move into the wheel.
// Most pops repeat the previous timestamp, so most pops are a vector
// pop_back and most pushes a list prepend; the heap sees only timers.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace ren::net {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// The harness/global lane. Node `id` schedules on lane `id + 1`.
  static constexpr std::int32_t kGlobalLane = 0;

  /// The wheel's span in 1 µs buckets. It covers a hop on the default 1 ms
  /// links (and the RTT-calibrated ones, at most 4 ms), so only timers and
  /// parked events reach the far heap.
  static constexpr Time kSpan = 4096;

  /// What an event carries besides its order key; kept in the slab.
  struct Body {
    Action action;  ///< general event; empty for packet events
    Packet packet;  ///< packet event payload (action empty)
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    int link = -1;
    /// Timer guard: the action runs only while node `guard` is alive in
    /// `incarnation` (kNoNode = unguarded). The simulator checks it.
    NodeId guard = kNoNode;
    std::uint32_t incarnation = 0;
  };

  struct Event : Body {
    Time at = 0;
    std::int32_t lane = kGlobalLane;
    std::uint64_t seq = 0;

    [[nodiscard]] bool is_packet() const { return !action; }
  };

  /// Schedule `action` at absolute time `at` on the global lane with this
  /// queue's own sequence counter (standalone use, and the simulator's
  /// harness events).
  void schedule_at(Time at, Action action);

  /// Schedule `action` with an externally assigned (lane, seq) key — the
  /// simulator owns the per-node lane counters — and an optional timer
  /// guard (see Body::guard).
  void schedule_at(Time at, Action action, std::int32_t lane,
                   std::uint64_t seq, NodeId guard = kNoNode,
                   std::uint32_t incarnation = 0);

  /// Allocation-free fast path: deliver `packet` (from -> to over `link`)
  /// at time `at` under the (lane, seq) key the simulator assigns.
  void schedule_packet(Time at, NodeId from, NodeId to, int link,
                       Packet packet, std::int32_t lane, std::uint64_t seq);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Current simulated time (time of the last executed event).
  [[nodiscard]] Time now() const { return now_; }

  /// Time of the next pending event, or kTimeNever when empty.
  [[nodiscard]] Time next_time() const;

  /// Pop the next event into `out` (advances now(), counts it as executed).
  /// Returns false when empty.
  bool pop(Event& out) { return pop_until(kTimeNever, out); }

  /// pop(), but only while the next event's time is <= `limit`.
  bool pop_until(Time limit, Event& out);

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Pushes that went to the far heap: past the wheel's span, or made
  /// before the first pop. All pushes so far number executed() + size().
  [[nodiscard]] std::uint64_t far_pushes() const { return far_pushes_; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::int32_t lane;
    std::uint32_t slot;  ///< index of the body in slab_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };
  /// The key of the slab slot with the same index while its event waits in
  /// a wheel bucket.
  struct Entry {
    std::uint64_t seq;
    std::int32_t lane;
    std::uint32_t next;  ///< next slot in the same bucket, or kNil
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kWords = static_cast<std::size_t>(kSpan) / 64;
  static_assert(kWords == 64, "the bitmap summary is one 64-bit word");

  /// A free slab slot (reused or appended); its body is default-state.
  Body& acquire(std::uint32_t& slot);
  /// File the key of the body just filled at `slot` into its tier.
  void push(Time at, std::int32_t lane, std::uint64_t seq, std::uint32_t slot);
  /// Prepend `k` to the bucket of `k.at`, which is in [now, now + kSpan).
  void link_into_wheel(const Key& k);
  /// The first occupied bucket at or after bucket `from`, wrapping around;
  /// the wheel must not be empty.
  [[nodiscard]] std::size_t next_bucket(std::size_t from) const;
  /// Make `t` (the earliest pending time, > now) current: pull far events
  /// into the wheel, then sort bucket `t` into due_.
  void advance(Time t);

  std::vector<Key> due_;  ///< events at now_, by (lane, seq) descending
  /// kSpan bucket heads, read only where occupied_ has the bucket's bit.
  /// Allocated by the first pop: until then every push but those at now()
  /// goes to the far heap, so a queue that is only filled (an experiment's
  /// set-up) touches no bucket memory.
  std::unique_ptr<std::uint32_t[]> heads_;
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit per bucket
  std::uint64_t occupied_words_ = 0;              ///< bit per occupied_ word
  std::vector<Key> far_;                          ///< min-heap (Later)
  std::vector<Body> slab_;
  /// Parallel to slab_, grown by the wheel as it takes slots (so not at
  /// all before the first pop).
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t far_pushes_ = 0;
};

}  // namespace ren::net
