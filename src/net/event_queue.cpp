#include "net/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ren::net {

EventQueue::Body& EventQueue::acquire(std::uint32_t& slot) {
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    return slab_.emplace_back();
  }
  slot = free_.back();
  free_.pop_back();
  return slab_[slot];
}

void EventQueue::push(Time at, std::int32_t lane, std::uint64_t seq,
                      std::uint32_t slot) {
  if (at < now_) at = now_;  // clamp: never schedule in the past
  heap_.push_back(Key{at, seq, lane, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time at, Action action) {
  schedule_at(at, std::move(action), kGlobalLane, next_seq_++);
}

void EventQueue::schedule_at(Time at, Action action, std::int32_t lane,
                             std::uint64_t seq, NodeId guard,
                             std::uint32_t incarnation) {
  std::uint32_t slot = 0;
  Body& b = acquire(slot);
  b.action = std::move(action);
  b.guard = guard;
  b.incarnation = incarnation;
  push(at, lane, seq, slot);
}

void EventQueue::schedule_packet(Time at, NodeId from, NodeId to, int link,
                                 Packet packet, std::int32_t lane,
                                 std::uint64_t seq) {
  std::uint32_t slot = 0;
  Body& b = acquire(slot);
  b.packet = std::move(packet);
  b.from = from;
  b.to = to;
  b.link = link;
  push(at, lane, seq, slot);
}

Time EventQueue::next_time() const {
  return heap_.empty() ? kTimeNever : heap_.front().at;
}

bool EventQueue::pop(Event& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  // Move the body out and leave the slot default-state, so a free slot
  // pins no closure or payload.
  static_cast<Body&>(out) = std::exchange(slab_[k.slot], Body{});
  out.at = k.at;
  out.lane = k.lane;
  out.seq = k.seq;
  free_.push_back(k.slot);
  now_ = k.at;
  ++executed_;
  return true;
}

bool EventQueue::pop_until(Time limit, Event& out) {
  if (heap_.empty() || heap_.front().at > limit) return false;
  return pop(out);
}

}  // namespace ren::net
