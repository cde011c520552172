#include "net/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace ren::net {

namespace {

constexpr std::size_t kMask = static_cast<std::size_t>(EventQueue::kSpan) - 1;

constexpr std::size_t bucket_of(Time at) {
  return static_cast<std::size_t>(at) & kMask;
}

}  // namespace

EventQueue::Body& EventQueue::acquire(std::uint32_t& slot) {
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    return slab_.emplace_back();
  }
  slot = free_.back();
  free_.pop_back();
  return slab_[slot];
}

void EventQueue::link_into_wheel(const Key& k) {
  if (k.slot >= entries_.size()) entries_.resize(slab_.size());
  const std::size_t b = bucket_of(k.at);
  std::uint64_t& word = occupied_[b / 64];
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  const std::uint32_t next = (word & bit) != 0 ? heads_[b] : kNil;
  entries_[k.slot] = Entry{k.seq, k.lane, next};
  heads_[b] = k.slot;
  word |= bit;
  occupied_words_ |= std::uint64_t{1} << (b / 64);
}

void EventQueue::push(Time at, std::int32_t lane, std::uint64_t seq,
                      std::uint32_t slot) {
  if (at < now_) at = now_;  // clamp: never schedule in the past
  ++size_;
  const Key key{at, seq, lane, slot};
  if (at == now_) {
    // Due now, possibly mid-drain: keep due_ sorted so the key still pops
    // in (lane, seq) order among the events already there.
    due_.insert(std::upper_bound(due_.begin(), due_.end(), key, Later{}), key);
    return;
  }
  // Never now_ + kSpan: at may be kTimeNever.
  if (heads_ != nullptr && at - now_ < kSpan) {
    link_into_wheel(key);
    return;
  }
  ++far_pushes_;
  far_.push_back(key);
  std::push_heap(far_.begin(), far_.end(), Later{});
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

std::size_t EventQueue::next_bucket(std::size_t from) const {
  std::size_t w = from / 64;
  const std::uint64_t here = occupied_[w] & (~std::uint64_t{0} << (from % 64));
  if (here != 0) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(here));
  }
  std::uint64_t words =
      w + 1 < kWords ? occupied_words_ & (~std::uint64_t{0} << (w + 1)) : 0;
  if (words == 0) words = occupied_words_;  // wrap around
  w = static_cast<std::size_t>(std::countr_zero(words));
  return w * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
}

Time EventQueue::next_time() const {
  if (!due_.empty()) return now_;
  if (occupied_words_ != 0) {
    // now_'s own bucket is empty (its events are in due_), so the first
    // occupied bucket after it is the earliest wheel time.
    const std::size_t from = bucket_of(now_);
    return now_ + static_cast<Time>((next_bucket(from) - from) & kMask);
  }
  return far_.empty() ? kTimeNever : far_.front().at;
}

void EventQueue::advance(Time t) {
  if (heads_ == nullptr) heads_.reset(new std::uint32_t[kSpan]);
  now_ = t;
  while (!far_.empty() && far_.front().at - t < kSpan) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    const Key k = far_.back();
    far_.pop_back();
    link_into_wheel(k);
  }
  const std::size_t b = bucket_of(t);
  for (std::uint32_t s = heads_[b]; s != kNil; s = entries_[s].next) {
    due_.push_back(Key{t, entries_[s].seq, entries_[s].lane, s});
  }
  std::uint64_t& word = occupied_[b / 64];
  word &= ~(std::uint64_t{1} << (b % 64));
  if (word == 0) occupied_words_ &= ~(std::uint64_t{1} << (b / 64));
  std::sort(due_.begin(), due_.end(), Later{});
}

bool EventQueue::pop_until(Time limit, Event& out) {
  if (due_.empty()) {
    if (size_ == 0) return false;
    const Time t = next_time();
    if (t > limit) return false;
    advance(t);
  } else if (now_ > limit) {
    return false;
  }
  const Key k = due_.back();
  due_.pop_back();
  --size_;
  // Move the body out and leave the slot default-state, so a free slot
  // pins no closure or payload.
  static_cast<Body&>(out) = std::exchange(slab_[k.slot], Body{});
  out.at = k.at;
  out.lane = k.lane;
  out.seq = k.seq;
  free_.push_back(k.slot);
  ++executed_;
  return true;
}

}  // namespace ren::net
