// The abstract switch's rule storage (paper Section 2.1.1).
//
// Rules are stored per installing controller (owner) as immutable tagged
// lists: `updateRule` replaces the owner's list for the current round tag;
// `newRound` advances the owner's meta (round) tag and ages out lists whose
// tag falls outside the retention window (2 tags = Algorithm 2's
// currTag/prevTag scheme, 3 tags = the Section 6.2 evaluation variant that
// keeps beforePrevTag rules alive during reconfigurations).
//
// Memory is bounded by maxRules; on overflow the table evicts the least
// recently updated owner entry, the paper's clogged-memory policy. Lookup
// returns an ordered candidate list for a (src, dst) header: higher match
// specificity first, then higher priority, then fresher round tag. The
// forwarding engine applies the first candidate whose out-port is
// operational — OpenFlow fast-failover semantics.
//
// Alongside the per-owner Renaissance management rules the table holds a
// capacity-limited *flow store*: exact-match microflow entries installed by
// the data-plane workload generator (flows/churn.hpp), evicted under table
// pressure by a configurable policy — priority-masked LRU (evict the least
// recently used entry among priority classes at or below the incoming
// priority) or reject-lowest (refuse the incoming entry when it is the
// lowest priority in the table). Management rules are *protected*: a flow
// entry can never displace them, so the self-stabilization invariants
// survive arbitrary table pressure; a management install under pressure
// instead evicts flow entries. Flow mutations deliberately leave the monitor
// epoch untouched — churn is not monitor-observable state — and invalidate
// only the affected lookup-cache key.
//
// The flow store keeps every entry on one slab and makes install, remove,
// reinstall and the lookup-time LRU refresh O(1). LRU stamps only grow, and
// every (re)stamp moves an entry to the newest end, so within one priority
// class stamp order is insertion order: a FIFO list per class yields the
// same victims as a (priority, stamp)-ordered index. Each class's head is
// its oldest entry; the victim search hops class heads.
//
// The lookup cache survives steady rounds. The table keeps one layout —
// the exact (owner, tag rank, list pointer) sequence candidates() reads —
// and every cached entry was built under it. A mutation only marks the
// layout stale; the next lookup re-selects it, and only a layout that no
// longer describes the state drops the whole cache. A steady newRound +
// updateRule pair passes through a transient layout and returns to the
// same one before any lookup (a switch applies a whole batch before it
// routes the reply), so the entries stay valid. A flow install, removal or
// reinstall drops only its own header's entry; corrupt() and the entry
// bound drop everything.
//
// The cache is one flat hash from header to a (offset, length) range of a
// per-table candidate arena. Dropped entries leave dead arena space behind;
// once more than half the arena is dead, the live ranges are compacted.
// match() is the from-scratch computation behind a miss. It is the oracle
// the cache is tested against, and the path monitor and data-path walks
// take (RuleForwarding), so measuring the tables never fills the packet
// path's cache.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "proto/messages.hpp"
#include "proto/rule.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ren::switchd {

/// One forwarding candidate produced by a lookup, pre-ordered.
struct Candidate {
  NodeId fwd = kNoNode;
  Priority prt = 0;
  int specificity = 0;
  int tag_rank = 0;  ///< 0 = current round tag, 1 = previous, ...
  NodeId cid = kNoNode;
};

/// How the flow store resolves table pressure (docs/scenarios.md):
///   PriorityLru   evict the least recently used flow entry among priority
///                 classes <= the incoming priority (priority-masked LRU);
///                 reject the newcomer only when no such entry exists.
///   RejectLowest  refuse the incoming entry when it would be the lowest
///                 priority in the table; otherwise evict the oldest entry
///                 of the lowest priority class.
enum class EvictionPolicy { PriorityLru, RejectLowest };

/// One exact-match microflow entry (churn workload).
struct FlowRule {
  std::uint64_t id = 0;  ///< generator-unique flow id
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Priority prt = 0;
  NodeId fwd = kNoNode;
};

class RuleTable {
 public:
  struct Config {
    std::size_t max_rules = 1u << 20;  ///< clogged-memory bound
  };

  /// Flow-store accounting (campaign "table" metrics; all monotonic except
  /// peak_rules, which tracks the peak combined occupancy).
  struct FlowStats {
    std::uint64_t installs = 0;
    std::uint64_t removals = 0;          ///< explicit departures that hit
    std::uint64_t overflow_rejects = 0;  ///< incoming entries refused
    std::uint64_t flow_evictions = 0;    ///< entries displaced by pressure
    std::uint64_t peak_rules = 0;        ///< peak occupancy (rules + flows)
    std::uint64_t lookups = 0;           ///< forwarding-path lookups
    std::uint64_t lookup_cost = 0;       ///< modeled cost of those lookups
  };

  /// Lookup-cache accounting for candidates() (and so lookup()): a hit
  /// returns a cached entry, a miss builds one with match().
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  explicit RuleTable(Config config) : config_(config) {}

  // --- Mutations (driven by controller commands) -------------------------
  void new_round(NodeId cid, proto::Tag tag, int retention);
  void update_rules(NodeId cid, proto::RuleListPtr rules, proto::Tag tag);
  void del_all(NodeId cid);
  void clear();

  // --- Flow store (data-plane workload; flows/churn.hpp) ------------------
  /// Install a microflow entry under the capacity limit. Returns false when
  /// the eviction policy rejects it (counted in overflow_rejects). Protected
  /// management rules are never displaced. Installing a stored id again
  /// refreshes its LRU stamp and takes the new priority and out-port; a
  /// flow id keeps its header for its lifetime.
  bool install_flow(const FlowRule& r);
  /// Remove a flow entry by id (false when already evicted/absent).
  bool remove_flow(std::uint64_t id);
  /// Drop every flow entry (stop_flow_churn flushes active flows).
  void clear_flows();
  void set_eviction_policy(EvictionPolicy p) { policy_ = p; }
  [[nodiscard]] std::size_t flow_rules() const { return flow_slot_.size(); }
  /// Combined occupancy counted against max_rules.
  [[nodiscard]] std::size_t occupancy() const {
    return owner_rules_ + flow_slot_.size();
  }
  [[nodiscard]] const FlowStats& flow_stats() const { return flow_stats_; }

  /// Forwarding-path lookup: candidates() plus the lookup-cost model (one
  /// binary-search probe of the priority-sorted table, ~log2(occupancy),
  /// plus one unit per candidate examined). Only the switch's packet path
  /// calls this — monitor walks use match() and stay cost-free. The span
  /// is valid until the next lookup or mutation.
  [[nodiscard]] std::span<const Candidate> lookup(NodeId src, NodeId dst);

  // --- Queries ----------------------------------------------------------
  /// The owner's current round tag (the paper's meta-rule tag), if any.
  [[nodiscard]] std::optional<proto::Tag> meta_tag(NodeId cid) const;
  [[nodiscard]] bool has_rules_of(NodeId cid) const;
  [[nodiscard]] std::vector<NodeId> owners() const;
  [[nodiscard]] std::vector<proto::RuleOwnerSummary> owners_summary() const;
  [[nodiscard]] std::size_t total_rules() const { return owner_rules_; }
  [[nodiscard]] std::size_t rules_wire_bytes() const;
  /// The newest installed list of `cid` (for the legitimacy monitor).
  [[nodiscard]] proto::RuleListPtr newest_rules_of(NodeId cid) const;
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Monitor-relevant change epoch: bumps when the owner set or any owner's
  /// newest installed list changes. Steady-state round churn (newRound +
  /// updateRule re-installing the same immutable list under a fresh tag)
  /// leaves it untouched — that is what lets the legitimacy monitor
  /// short-circuit between faults.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Ordered forwarding candidates for a packet header; cached while the
  /// layout and the header's flow entries stay the same. The span is valid
  /// until the next lookup or mutation.
  [[nodiscard]] std::span<const Candidate> candidates(NodeId src, NodeId dst);
  /// The candidates() list computed from scratch, appended to `out`; reads
  /// and writes no cache.
  void match(NodeId src, NodeId dst, std::vector<Candidate>& out) const;
  [[nodiscard]] const CacheStats& cache_stats() const { return cache_stats_; }
  /// Headers with a cached candidate list.
  [[nodiscard]] std::size_t cache_size() const { return lookup_cache_.size(); }
  /// Cached candidates, and the part of them no entry refers to any more.
  [[nodiscard]] std::size_t arena_size() const { return arena_.size(); }
  [[nodiscard]] std::size_t arena_dead() const { return arena_dead_; }

  /// Transient-fault hook: scramble stored rules (tests only). `node_space`
  /// bounds the random ids written into corrupted entries.
  void corrupt(Rng& rng, NodeId node_space);

 private:
  struct TaggedList {
    proto::Tag tag;
    proto::RuleListPtr rules;
  };
  struct OwnerEntry {
    std::vector<proto::Tag> recent_tags;  ///< front = current round tag
    std::vector<TaggedList> lists;
    int retention = 2;
    std::uint64_t touch = 0;  ///< LRU stamp
  };

  /// One retained list as candidates() sees it. The owning pointer keeps
  /// the list alive, so its address cannot be reused by another list while
  /// a layout holding it can still be matched.
  struct ListRef {
    NodeId cid = kNoNode;
    int rank = 0;
    proto::RuleListPtr rules;
  };
  /// A cached candidate list: its range of the arena.
  struct CachedLookup {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Open-addressed uint64 -> V hash: linear probing over a power-of-two
  /// array kept at most half full, backward-shift deletion (no tombstones),
  /// no allocation until the first insert and none per entry.
  template <class V>
  class FlatHash {
   public:
    [[nodiscard]] V* find(std::uint64_t key);
    [[nodiscard]] const V* find(std::uint64_t key) const;
    /// Insert an absent key; the reference is valid until the next insert
    /// or erase.
    V& insert(std::uint64_t key, V value);
    void erase(std::uint64_t key);  ///< the key must be present
    void clear() { *this = FlatHash(); }
    [[nodiscard]] std::size_t size() const { return size_; }
    template <class F>
    void for_each_key(F f) const {
      for (const Slot& s : slots_) {
        if (s.used) f(s.key);
      }
    }
    template <class F>
    void for_each_value(F f) {
      for (Slot& s : slots_) {
        if (s.used) f(s.value);
      }
    }

   private:
    struct Slot {
      std::uint64_t key = 0;
      V value{};
      bool used = false;
    };
    [[nodiscard]] std::size_t home(std::uint64_t key) const;
    [[nodiscard]] std::size_t position(std::uint64_t key) const;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  /// An intrusive list of slab slots, oldest first.
  struct FlowList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// The previous and next slot on one FlowList.
  struct Link {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  /// A stored flow entry: the rule, its LRU stamp and its two list links.
  /// A free slot has rule.id 0 and chains the free list through lru.next.
  struct FlowEntry {
    FlowRule rule;
    std::uint64_t stamp = 0;
    Link lru;  ///< the priority class's list, in stamp order
    Link hdr;  ///< the (src, dst) header's list, in install order
  };
  /// One priority class's LRU list (never empty while stored).
  struct FlowClass {
    Priority prt = 0;
    FlowList list;
  };

  void trim_to_retention(OwnerEntry& e);
  void enforce_capacity();
  /// Recount the owner rules, mark the layout stale and advance the epoch
  /// iff the monitor-observable content (owner set, newest list per owner)
  /// actually changed. Called at the end of every mutating entry point.
  void note_mutation();
  /// Make the layout describe the state: a layout that already does keeps
  /// its cache entries; otherwise it is rebuilt and the cache dropped.
  void select_layout();
  /// True when layout_ is exactly the state's (owner, rank, list) sequence.
  [[nodiscard]] bool layout_current() const;
  /// Drop the cached entry of `key`, if any; compact the arena once more
  /// than half of it is dead.
  void drop_cached(std::uint64_t key);
  void drop_all_cached();
  [[nodiscard]] std::size_t count_owner_rules() const;
  [[nodiscard]] std::uint64_t content_signature() const;
  /// Erase the flow entry in `slot` and unlink it from every index;
  /// counted against `counter` (evictions vs removals).
  void erase_flow(std::uint32_t slot, std::uint64_t FlowStats::*counter);
  /// Pick the eviction victim's slot for an incoming priority under the
  /// active policy, or kNil when the newcomer must be rejected.
  [[nodiscard]] std::uint32_t pick_victim(Priority incoming) const;
  /// The first class whose priority is not below `prt`.
  [[nodiscard]] std::vector<FlowClass>::iterator class_at(Priority prt);
  /// The class of `prt`, created (empty) when absent.
  FlowList& class_of(Priority prt);
  /// Stamp the entry in `slot` as the newest of its class.
  void restamp(std::uint32_t slot);
  void link_tail(FlowList& list, std::uint32_t slot, Link FlowEntry::*link);
  void unlink(FlowList& list, std::uint32_t slot, Link FlowEntry::*link);
  /// Unlink `slot` from its class list, dropping the class once empty.
  void unlink_class(std::uint32_t slot);
  void note_peak();

  Config config_;
  std::map<NodeId, OwnerEntry> owners_;
  std::uint64_t touch_counter_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t content_sig_ = 0;
  std::size_t owner_rules_ = 0;  ///< total_rules(), recounted per mutation
  /// The lists candidates() read when the cache was filled, in its order.
  std::vector<ListRef> layout_;
  bool layout_stale_ = false;  ///< mutated since select_layout()
  FlatHash<CachedLookup> lookup_cache_;  ///< lookup_key(src, dst) -> range
  std::vector<Candidate> arena_;  ///< every cached candidate list
  std::size_t arena_dead_ = 0;    ///< arena entries no range refers to
  CacheStats cache_stats_;

  // --- Flow store ---------------------------------------------------------
  EvictionPolicy policy_ = EvictionPolicy::PriorityLru;
  std::vector<FlowEntry> slab_;
  std::uint32_t free_ = kNil;          ///< head of the free-slot chain
  FlatHash<std::uint32_t> flow_slot_;  ///< flow id -> slab slot
  /// Priority classes in ascending priority; the lowest class's head is
  /// the oldest entry of the lowest priority.
  std::vector<FlowClass> classes_;
  /// lookup_key(src, dst) -> the entries matching that exact header, in
  /// install order (candidates() appends them in this order).
  FlatHash<FlowList> flow_match_;
  std::uint64_t flow_stamp_ = 0;
  FlowStats flow_stats_;
};

}  // namespace ren::switchd
