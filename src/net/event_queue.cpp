#include "net/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ren::net {

void EventQueue::push(Event&& ev) {
  if (ev.at < now_) ev.at = now_;  // clamp: never schedule in the past
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time at, Action action) {
  schedule_at(at, std::move(action), kGlobalLane, next_seq_++);
}

void EventQueue::schedule_at(Time at, Action action, std::int32_t lane,
                             std::uint64_t seq) {
  Event ev;
  ev.at = at;
  ev.lane = lane;
  ev.seq = seq;
  ev.action = std::move(action);
  push(std::move(ev));
}

void EventQueue::schedule_packet(Time at, NodeId from, NodeId to, int link,
                                 Packet packet) {
  schedule_packet(at, from, to, link, std::move(packet), kGlobalLane,
                  next_seq_++);
}

void EventQueue::schedule_packet(Time at, NodeId from, NodeId to, int link,
                                 Packet packet, std::int32_t lane,
                                 std::uint64_t seq) {
  Event ev;
  ev.at = at;
  ev.lane = lane;
  ev.seq = seq;
  ev.packet = std::move(packet);
  ev.from = from;
  ev.to = to;
  ev.link = link;
  push(std::move(ev));
}

Time EventQueue::next_time() const {
  return heap_.empty() ? kTimeNever : heap_.front().at;
}

bool EventQueue::pop(Event& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  out = std::move(heap_.back());
  heap_.pop_back();
  now_ = out.at;
  ++executed_;
  return true;
}

bool EventQueue::pop_until(Time limit, Event& out) {
  if (heap_.empty() || heap_.front().at > limit) return false;
  return pop(out);
}

bool EventQueue::step() {
  Event ev;
  if (!pop(ev)) return false;
  if (ev.action) {
    ev.action();
  } else {
    packet_handler_(ev.from, ev.to, ev.link, ev.packet);
  }
  return true;
}

}  // namespace ren::net
