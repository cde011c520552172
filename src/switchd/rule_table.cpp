#include "switchd/rule_table.hpp"

#include <algorithm>

namespace ren::switchd {

namespace {

std::uint64_t lookup_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// Position of `tag` among an owner's recent round tags (0 = current);
/// recent_tags.size() for a tag no longer among them.
int tag_rank(const std::deque<proto::Tag>& recent_tags, const proto::Tag& tag) {
  return static_cast<int>(
      std::find(recent_tags.begin(), recent_tags.end(), tag) -
      recent_tags.begin());
}

}  // namespace

void RuleTable::new_round(NodeId cid, proto::Tag tag, int retention) {
  OwnerEntry& e = owners_[cid];
  e.retention = std::max(1, retention);
  if (e.recent_tags.empty() || !(e.recent_tags.front() == tag)) {
    e.recent_tags.push_front(tag);
  }
  e.touch = ++touch_counter_;
  trim_to_retention(e);
  note_mutation();
}

void RuleTable::update_rules(NodeId cid, proto::RuleListPtr rules,
                             proto::Tag tag) {
  OwnerEntry& e = owners_[cid];
  if (std::find(e.recent_tags.begin(), e.recent_tags.end(), tag) ==
      e.recent_tags.end()) {
    e.recent_tags.push_front(tag);
  }
  bool replaced = false;
  for (auto& tl : e.lists) {
    if (tl.tag == tag) {
      tl.rules = rules;
      replaced = true;
      break;
    }
  }
  if (!replaced) e.lists.push_back(TaggedList{tag, std::move(rules)});
  // Installing the current round's rules removes the oldest retained round
  // (Section 6.2: installing currTag removes beforePrevTag; the base
  // algorithm with retention 2 removes prevTag): live lists are the first
  // retention-1 round tags plus the one just written.
  const auto live_tags = static_cast<std::size_t>(
      std::max(1, e.retention - 1));
  std::erase_if(e.lists, [&](const TaggedList& tl) {
    if (tl.tag == tag) return false;
    const auto pos =
        std::find(e.recent_tags.begin(), e.recent_tags.end(), tl.tag);
    return pos == e.recent_tags.end() ||
           static_cast<std::size_t>(pos - e.recent_tags.begin()) >= live_tags;
  });
  e.touch = ++touch_counter_;
  trim_to_retention(e);
  enforce_capacity();
  note_mutation();
}

void RuleTable::del_all(NodeId cid) {
  owners_.erase(cid);
  note_mutation();
}

void RuleTable::clear() {
  owners_.clear();
  note_mutation();
}

// --- Flow store --------------------------------------------------------------

void RuleTable::note_peak() {
  const std::uint64_t occ = occupancy();
  if (occ > flow_stats_.peak_rules) flow_stats_.peak_rules = occ;
}

// FlatHash: Fibonacci hashing spreads both sequential flow ids and packed
// (src, dst) headers over the high bits.
template <class V>
std::size_t RuleTable::FlatHash<V>::home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
         (slots_.size() - 1);
}

/// The slot holding `key`, or the empty slot that ends its probe run.
template <class V>
std::size_t RuleTable::FlatHash<V>::position(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

template <class V>
V* RuleTable::FlatHash<V>::find(std::uint64_t key) {
  if (size_ == 0) return nullptr;
  Slot& s = slots_[position(key)];
  return s.used ? &s.value : nullptr;
}

template <class V>
V& RuleTable::FlatHash<V>::insert(std::uint64_t key, V value) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.used) slots_[position(s.key)] = s;
    }
  }
  Slot& s = slots_[position(key)];
  s = Slot{key, value, true};
  ++size_;
  return s.value;
}

template <class V>
void RuleTable::FlatHash<V>::erase(std::uint64_t key) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = position(key);
  for (std::size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void RuleTable::link_tail(FlowList& list, std::uint32_t slot,
                          Link FlowEntry::*link) {
  Link& l = slab_[slot].*link;
  l.prev = list.tail;
  l.next = kNil;
  if (list.tail == kNil) {
    list.head = slot;
  } else {
    (slab_[list.tail].*link).next = slot;
  }
  list.tail = slot;
}

void RuleTable::unlink(FlowList& list, std::uint32_t slot,
                       Link FlowEntry::*link) {
  const Link l = slab_[slot].*link;
  if (l.prev == kNil) {
    list.head = l.next;
  } else {
    (slab_[l.prev].*link).next = l.next;
  }
  if (l.next == kNil) {
    list.tail = l.prev;
  } else {
    (slab_[l.next].*link).prev = l.prev;
  }
}

std::vector<RuleTable::FlowClass>::iterator RuleTable::class_at(
    Priority prt) {
  return std::lower_bound(
      classes_.begin(), classes_.end(), prt,
      [](const FlowClass& c, Priority p) { return c.prt < p; });
}

RuleTable::FlowList& RuleTable::class_of(Priority prt) {
  auto it = class_at(prt);
  if (it == classes_.end() || it->prt != prt) {
    it = classes_.insert(it, FlowClass{prt, {}});
  }
  return it->list;
}

void RuleTable::unlink_class(std::uint32_t slot) {
  const auto it = class_at(slab_[slot].rule.prt);
  unlink(it->list, slot, &FlowEntry::lru);
  if (it->list.head == kNil) classes_.erase(it);
}

void RuleTable::restamp(std::uint32_t slot) {
  FlowList& cls = class_of(slab_[slot].rule.prt);
  unlink(cls, slot, &FlowEntry::lru);
  link_tail(cls, slot, &FlowEntry::lru);
  slab_[slot].stamp = ++flow_stamp_;
}

void RuleTable::erase_flow(std::uint32_t slot,
                           std::uint64_t FlowStats::*counter) {
  FlowEntry& e = slab_[slot];
  const std::uint64_t key = lookup_key(e.rule.src, e.rule.dst);
  unlink_class(slot);
  FlowList* match = flow_match_.find(key);
  unlink(*match, slot, &FlowEntry::hdr);
  if (match->head == kNil) flow_match_.erase(key);
  flow_slot_.erase(e.rule.id);
  lookup_cache_.erase(key);
  e.rule.id = 0;
  e.lru.next = free_;
  free_ = slot;
  flow_stats_.*counter += 1;
}

std::uint32_t RuleTable::pick_victim(Priority incoming) const {
  if (classes_.empty()) return kNil;
  if (policy_ == EvictionPolicy::RejectLowest) {
    // The incoming entry must strictly beat the lowest stored priority to
    // displace anything; the victim is that class's oldest entry.
    const FlowClass& lowest = classes_.front();
    return lowest.prt < incoming ? lowest.list.head : kNil;
  }
  // PriorityLru: the least recently used entry over every priority class at
  // or below the incoming priority. Each class's head is its oldest entry;
  // classes are few (flow priorities span the compiler's n_prt range), so
  // hopping class heads is O(classes).
  std::uint32_t victim = kNil;
  for (const FlowClass& c : classes_) {
    if (c.prt > incoming) break;
    if (victim == kNil || slab_[c.list.head].stamp < slab_[victim].stamp) {
      victim = c.list.head;
    }
  }
  return victim;
}

bool RuleTable::install_flow(const FlowRule& r) {
  if (r.id == 0) return false;  // 0 marks a free slab slot
  if (const std::uint32_t* slot = flow_slot_.find(r.id)) {
    // Reinstall refreshes the LRU stamp and may move the entry to another
    // priority class; the header stays (flow ids are bound to one header
    // for their lifetime), and its cached candidates are rebuilt.
    FlowEntry& e = slab_[*slot];
    unlink_class(*slot);
    e.rule.prt = r.prt;
    e.rule.fwd = r.fwd;
    e.stamp = ++flow_stamp_;
    link_tail(class_of(r.prt), *slot, &FlowEntry::lru);
    lookup_cache_.erase(lookup_key(e.rule.src, e.rule.dst));
    return true;
  }
  if (occupancy() >= config_.max_rules) {
    // Protected management rules alone may exceed the capacity; flows only
    // ever displace other flows.
    const std::uint32_t victim = pick_victim(r.prt);
    if (victim == kNil) {
      ++flow_stats_.overflow_rejects;
      return false;
    }
    erase_flow(victim, &FlowStats::flow_evictions);
  }
  std::uint32_t slot = free_;
  if (slot == kNil) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    free_ = slab_[slot].lru.next;
  }
  FlowEntry& e = slab_[slot];
  e.rule = r;
  e.stamp = ++flow_stamp_;
  link_tail(class_of(r.prt), slot, &FlowEntry::lru);
  const std::uint64_t key = lookup_key(r.src, r.dst);
  FlowList* match = flow_match_.find(key);
  if (match == nullptr) match = &flow_match_.insert(key, FlowList{});
  link_tail(*match, slot, &FlowEntry::hdr);
  flow_slot_.insert(r.id, slot);
  lookup_cache_.erase(key);
  ++flow_stats_.installs;
  note_peak();
  return true;
}

bool RuleTable::remove_flow(std::uint64_t id) {
  const std::uint32_t* slot = flow_slot_.find(id);
  if (slot == nullptr) return false;
  erase_flow(*slot, &FlowStats::removals);
  return true;
}

void RuleTable::clear_flows() {
  flow_stats_.removals += flow_slot_.size();
  flow_match_.for_each_key([this](std::uint64_t key) {
    lookup_cache_.erase(key);
  });
  slab_ = {};
  free_ = kNil;
  flow_slot_.clear();
  classes_ = {};
  flow_match_.clear();
}

const std::vector<Candidate>& RuleTable::lookup(NodeId src, NodeId dst) {
  // Lookup-cost model (docs/ARCHITECTURE.md): one probe of the priority-
  // sorted table — ~log2 of the occupancy, the sorted-array idiom — plus a
  // unit per candidate the fast-failover scan may examine. Charged per
  // forwarding-path lookup regardless of the cache (the cache is an
  // implementation artifact, not part of the modeled hardware).
  ++flow_stats_.lookups;
  std::uint64_t probe = 1;
  for (std::size_t occ = occupancy(); occ > 1; occ >>= 1) ++probe;
  const std::vector<Candidate>& cands = candidates(src, dst);
  flow_stats_.lookup_cost += probe + cands.size();
  // Matched flow entries are "used": refresh their LRU stamps, in install
  // order, so popular flows survive priority-masked LRU pressure.
  if (const FlowList* match = flow_match_.find(lookup_key(src, dst))) {
    for (std::uint32_t s = match->head; s != kNil; s = slab_[s].hdr.next) {
      restamp(s);
    }
  }
  return cands;
}

void RuleTable::trim_to_retention(OwnerEntry& e) {
  while (e.recent_tags.size() > static_cast<std::size_t>(e.retention)) {
    e.recent_tags.pop_back();
  }
  std::erase_if(e.lists, [&e](const TaggedList& tl) {
    return std::find(e.recent_tags.begin(), e.recent_tags.end(), tl.tag) ==
           e.recent_tags.end();
  });
}

std::uint64_t RuleTable::content_signature() const {
  // Owner ids, each owner's newest list and every retained list's identity —
  // everything the legitimacy monitor can observe (owners(),
  // newest_rules_of(), candidates()-driven walks). Lists are immutable, so
  // pointer identity stands in for content. Tags are deliberately NOT
  // hashed: steady-state round churn re-installs the same compiled list
  // pointer under fresh tags, which must leave the signature unchanged.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& [cid, e] : owners_) {
    mix(static_cast<std::uint64_t>(cid) + 1);
    const proto::RuleListPtr newest = newest_rules_of(cid);
    mix(reinterpret_cast<std::uint64_t>(newest.get()));
    mix(e.lists.size());
    for (const auto& tl : e.lists) {
      mix(reinterpret_cast<std::uint64_t>(tl.rules.get()));
    }
  }
  return h;
}

bool RuleTable::describes(const Layout& layout) const {
  auto ref = layout.lists.begin();
  for (const auto& [cid, e] : owners_) {
    for (const auto& tl : e.lists) {
      if (!tl.rules) continue;
      if (ref == layout.lists.end() || ref->cid != cid ||
          ref->rules != tl.rules ||
          ref->rank != tag_rank(e.recent_tags, tl.tag)) {
        return false;
      }
      ++ref;
    }
  }
  return ref == layout.lists.end();
}

void RuleTable::select_layout() {
  layout_stale_ = false;
  if (describes(layout_)) return;
  // Entries built under the replaced layout's id can never match again.
  layout_.id = ++layout_ids_;
  layout_.lists.clear();
  for (const auto& [cid, e] : owners_) {
    for (const auto& tl : e.lists) {
      if (tl.rules) {
        layout_.lists.push_back(
            ListRef{cid, tag_rank(e.recent_tags, tl.tag), tl.rules});
      }
    }
  }
}

void RuleTable::note_mutation() {
  owner_rules_ = count_owner_rules();
  layout_stale_ = true;
  const std::uint64_t sig = content_signature();
  if (sig != content_sig_) {
    content_sig_ = sig;
    ++epoch_;
  }
}

void RuleTable::enforce_capacity() {
  // Management rules are protected: when a controller install overflows the
  // table, flow entries go first (lowest priority class, oldest entry) so
  // the self-stabilization state survives data-plane pressure.
  const std::size_t owner_rules = count_owner_rules();
  while (owner_rules + flow_slot_.size() > config_.max_rules &&
         !classes_.empty()) {
    erase_flow(classes_.front().list.head, &FlowStats::flow_evictions);
  }
  // Clogged memory: evict whole least-recently-updated owner entries until
  // the total rule count fits (Section 2.1.1 eviction policy, at the
  // granularity of our per-owner immutable lists).
  while (count_owner_rules() > config_.max_rules && owners_.size() > 1) {
    auto victim = owners_.begin();
    for (auto it = owners_.begin(); it != owners_.end(); ++it) {
      if (it->second.touch < victim->second.touch) victim = it;
    }
    owners_.erase(victim);
    ++evictions_;
  }
}

std::optional<proto::Tag> RuleTable::meta_tag(NodeId cid) const {
  auto it = owners_.find(cid);
  if (it == owners_.end() || it->second.recent_tags.empty()) return std::nullopt;
  return it->second.recent_tags.front();
}

bool RuleTable::has_rules_of(NodeId cid) const {
  auto it = owners_.find(cid);
  if (it == owners_.end()) return false;
  for (const auto& tl : it->second.lists) {
    if (tl.rules && !tl.rules->empty()) return true;
  }
  return false;
}

std::vector<NodeId> RuleTable::owners() const {
  std::vector<NodeId> out;
  out.reserve(owners_.size());
  for (const auto& [cid, _] : owners_) out.push_back(cid);
  return out;
}

std::vector<proto::RuleOwnerSummary> RuleTable::owners_summary() const {
  std::vector<proto::RuleOwnerSummary> out;
  for (const auto& [cid, e] : owners_) {
    for (const auto& tl : e.lists) {
      proto::RuleOwnerSummary s;
      s.cid = cid;
      s.tag = tl.tag;
      s.count = tl.rules ? static_cast<std::uint32_t>(tl.rules->size()) : 0;
      out.push_back(s);
    }
    if (e.lists.empty() && !e.recent_tags.empty()) {
      // Meta rule only (newRound seen, no updateRule yet).
      out.push_back(proto::RuleOwnerSummary{cid, e.recent_tags.front(), 0});
    }
  }
  return out;
}

std::size_t RuleTable::count_owner_rules() const {
  std::size_t n = 0;
  for (const auto& [cid, e] : owners_) {
    for (const auto& tl : e.lists) {
      if (tl.rules) n += tl.rules->size();
    }
  }
  return n;
}

std::size_t RuleTable::rules_wire_bytes() const {
  return total_rules() * proto::wire_size(proto::Rule{});
}

proto::RuleListPtr RuleTable::newest_rules_of(NodeId cid) const {
  auto it = owners_.find(cid);
  if (it == owners_.end()) return nullptr;
  const OwnerEntry& e = it->second;
  for (const proto::Tag& t : e.recent_tags) {  // front = newest
    for (const auto& tl : e.lists) {
      if (tl.tag == t && tl.rules) return tl.rules;
    }
  }
  return nullptr;
}

const std::vector<Candidate>& RuleTable::candidates(NodeId src, NodeId dst) {
  if (layout_stale_) select_layout();
  const Layout& layout = layout_;
  const std::uint64_t key = lookup_key(src, dst);
  auto cached = lookup_cache_.find(key);
  if (cached != lookup_cache_.end() && cached->second.layout == layout.id) {
    ++cache_stats_.hits;
    return cached->second.cands;
  }
  ++cache_stats_.misses;
  if (cached == lookup_cache_.end()) {
    // Bound the cache (flow pairs are few in practice; corruption could blow
    // it up, so clamp hard).
    if (lookup_cache_.size() > 65536) lookup_cache_.clear();
    cached = lookup_cache_.try_emplace(key).first;
  }
  cached->second.layout = layout.id;
  std::vector<Candidate>& cands = cached->second.cands;
  cands.clear();
  for (const ListRef& ref : layout.lists) {
    const proto::RuleList& rules = *ref.rules;
    // Lists are sorted by (dest, src, -prt): binary-search the dest range,
    // then scan it for matching src groups (exact src and wildcard src).
    auto lo = std::lower_bound(
        rules.begin(), rules.end(), dst,
        [](const proto::Rule& r, NodeId d) { return r.dest < d; });
    for (auto it = lo; it != rules.end() && it->dest == dst; ++it) {
      if (!it->matches(src, dst)) continue;
      cands.push_back(
          Candidate{it->fwd, it->prt, it->specificity(), ref.rank, ref.cid});
    }
    // Wildcard-dest rules are not produced by the compiler but may exist
    // after state corruption; include them for faithful recovery behavior.
    auto wlo = std::lower_bound(
        rules.begin(), rules.end(), kNoNode,
        [](const proto::Rule& r, NodeId d) { return r.dest < d; });
    for (auto it = wlo; it != rules.end() && it->dest == kNoNode; ++it) {
      if (!it->matches(src, dst)) continue;
      cands.push_back(
          Candidate{it->fwd, it->prt, it->specificity(), ref.rank, ref.cid});
    }
  }
  // Flow-store entries are exact matches on both header fields (specificity
  // 2, current tag rank, no owning controller).
  if (const FlowList* match = flow_match_.find(key)) {
    for (std::uint32_t s = match->head; s != kNil; s = slab_[s].hdr.next) {
      const FlowRule& r = slab_[s].rule;
      cands.push_back(Candidate{r.fwd, r.prt, 2, 0, kNoNode});
    }
  }
  // Round freshness first: rules of an owner's *current* round always beat
  // its older retained rounds — retained lists exist purely as failover
  // while a reconfiguration rolls out (Section 6.2), and must never
  // override fresh state (a corrupted old-tag rule could otherwise shadow
  // the repair forever). Within a round: priority first (the paper: "the
  // rule with the highest prt that matches"), specificity as tie-breaker.
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.tag_rank != b.tag_rank) return a.tag_rank < b.tag_rank;
              if (a.prt != b.prt) return a.prt > b.prt;
              if (a.specificity != b.specificity)
                return a.specificity > b.specificity;
              return a.cid < b.cid;
            });
  // Collapse duplicates (several controllers installing the same decision).
  cands.erase(std::unique(cands.begin(), cands.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.fwd == b.fwd && a.prt == b.prt &&
                                   a.specificity == b.specificity;
                          }),
              cands.end());

  return cands;
}

void RuleTable::corrupt(Rng& rng, NodeId node_space) {
  // Model arbitrary state corruption: delete some owners entirely, rewrite
  // some rules to random forward ports / matches, scramble tags.
  for (auto it = owners_.begin(); it != owners_.end();) {
    if (rng.chance(0.3)) {
      it = owners_.erase(it);
      continue;
    }
    OwnerEntry& e = it->second;
    for (auto& tl : e.lists) {
      if (!tl.rules) continue;
      if (rng.chance(0.5)) {
        auto mutated = std::make_shared<proto::RuleList>(*tl.rules);
        for (auto& r : *mutated) {
          if (rng.chance(0.2)) {
            r.fwd = static_cast<NodeId>(rng.next_below(
                static_cast<std::uint64_t>(node_space)));
          }
          if (rng.chance(0.1)) {
            r.dest = static_cast<NodeId>(rng.next_below(
                static_cast<std::uint64_t>(node_space)));
          }
          if (rng.chance(0.05)) r.prt = static_cast<Priority>(rng.next_below(8));
        }
        tl.rules = std::move(mutated);
      }
      if (rng.chance(0.3)) {
        tl.tag = proto::Tag{
            static_cast<NodeId>(rng.next_below(
                static_cast<std::uint64_t>(node_space))),
            static_cast<std::uint32_t>(rng.next_below(proto::kTagDomain))};
      }
    }
    ++it;
  }
  // Scrambled flow entries keep their layout, so drop every cached lookup.
  lookup_cache_.clear();
  // Scramble flow-store out-ports too, one draw per flow in ascending id
  // order — but only when flows exist, so the RNG draw sequence (and thus
  // every downstream random choice) in flow-free trials is identical to a
  // build without the flow store.
  if (flow_slot_.size() > 0) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
    live.reserve(flow_slot_.size());
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (slab_[s].rule.id != 0) live.emplace_back(slab_[s].rule.id, s);
    }
    std::sort(live.begin(), live.end());
    for (const auto& [id, s] : live) {
      if (rng.chance(0.1)) {
        slab_[s].rule.fwd = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(node_space)));
      }
    }
  }
  note_mutation();
}

}  // namespace ren::switchd
