#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "switchd/rule_table.hpp"

namespace ren::switchd {
namespace {

proto::Tag tag(NodeId owner, std::uint32_t e) { return proto::Tag{owner, e}; }

proto::RuleListPtr rules_of(NodeId cid, NodeId sid,
                            std::vector<std::tuple<NodeId, NodeId, Priority,
                                                   NodeId>> specs) {
  auto list = std::make_shared<proto::RuleList>();
  for (auto [src, dest, prt, fwd] : specs) {
    list->push_back(proto::Rule{cid, sid, src, dest, prt, fwd});
  }
  std::sort(list->begin(), list->end(), [](const auto& a, const auto& b) {
    if (a.dest != b.dest) return a.dest < b.dest;
    if (a.src != b.src) return a.src < b.src;
    return a.prt > b.prt;
  });
  return list;
}

TEST(RuleTable, MetaTagFollowsNewRound) {
  RuleTable t({1024});
  EXPECT_FALSE(t.meta_tag(7).has_value());
  t.new_round(7, tag(7, 1), 2);
  EXPECT_EQ(t.meta_tag(7)->epoch, 1u);
  t.new_round(7, tag(7, 2), 2);
  EXPECT_EQ(t.meta_tag(7)->epoch, 2u);
}

TEST(RuleTable, UpdateReplacesSameTagList) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7, rules_of(7, 0, {{7, 1, 3, 2}}), tag(7, 1));
  EXPECT_EQ(t.total_rules(), 1u);
  t.update_rules(7, rules_of(7, 0, {{7, 1, 3, 2}, {7, 2, 3, 2}}), tag(7, 1));
  EXPECT_EQ(t.total_rules(), 2u);
}

TEST(RuleTable, RetentionTwoKeepsOnlyTheCurrentRound) {
  // Base Algorithm 2: "as the new rules for currTag are being installed,
  // the ones for prevTag are being removed".
  RuleTable t({1024});
  for (std::uint32_t e = 1; e <= 4; ++e) {
    t.new_round(7, tag(7, e), 2);
    t.update_rules(7, rules_of(7, 0, {{7, static_cast<NodeId>(e), 3, 2}}),
                   tag(7, e));
  }
  EXPECT_EQ(t.total_rules(), 1u);
  const auto owners = t.owners_summary();
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0].tag.epoch, 4u);
}

TEST(RuleTable, RetentionThreeKeepsPreviousRoundAsFailover) {
  // Section 6.2 variant: installing currTag removes beforePrevTag but
  // keeps prevTag rules alive as failover.
  RuleTable t({1024});
  for (std::uint32_t e = 1; e <= 4; ++e) {
    t.new_round(7, tag(7, e), 3);
    t.update_rules(7, rules_of(7, 0, {{7, static_cast<NodeId>(e), 3, 2}}),
                   tag(7, e));
  }
  EXPECT_EQ(t.total_rules(), 2u);  // rounds 3 and 4
}

TEST(RuleTable, StaleRoundNeverShadowsCurrentRules) {
  // A (possibly corrupted) retained list from an older round must lose to
  // the current round's rules even with an absurdly high priority.
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 3);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 99, 111}}), tag(7, 1));
  t.new_round(7, tag(7, 2), 3);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 2, 222}}), tag(7, 2));
  const auto& cands = t.candidates(5, 9);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands.front().fwd, 222);
}

TEST(RuleTable, DelAllRemovesOwnerEntirely) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7, rules_of(7, 0, {{7, 1, 3, 2}}), tag(7, 1));
  t.new_round(8, tag(8, 1), 2);
  t.del_all(7);
  EXPECT_FALSE(t.has_rules_of(7));
  EXPECT_FALSE(t.meta_tag(7).has_value());
  EXPECT_TRUE(t.meta_tag(8).has_value());
  EXPECT_EQ(t.owners(), (std::vector<NodeId>{8}));
}

TEST(RuleTable, NewestRulesWinLookupTies) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 3);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 111}}), tag(7, 1));
  t.new_round(7, tag(7, 2), 3);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 222}}), tag(7, 2));
  const auto& cands = t.candidates(5, 9);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands.front().fwd, 222);  // fresher round tag wins the tie
}

TEST(RuleTable, PriorityBeatsSpecificity) {
  // The paper applies "the rule with the highest prt that matches";
  // match specificity only breaks priority ties.
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7,
                 rules_of(7, 0,
                          {{kNoNode, 9, 3, 100},  // wildcard, high priority
                           {5, 9, 2, 200}}),      // exact, lower priority
                 tag(7, 1));
  const auto& cands = t.candidates(5, 9);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].fwd, 100);
  EXPECT_EQ(cands[1].fwd, 200);
}

TEST(RuleTable, ExactMatchBeatsWildcardAtSamePriority) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(
      7, rules_of(7, 0, {{kNoNode, 9, 3, 100}, {5, 9, 3, 200}}), tag(7, 1));
  const auto& cands = t.candidates(5, 9);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].fwd, 200);
}

TEST(RuleTable, LookupFiltersByMatch) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(
      7, rules_of(7, 0, {{4, 9, 3, 100}, {kNoNode, 8, 3, 200}}), tag(7, 1));
  EXPECT_TRUE(t.candidates(5, 9).empty());   // src mismatch
  EXPECT_FALSE(t.candidates(4, 9).empty());  // exact
  EXPECT_FALSE(t.candidates(1, 8).empty());  // wildcard src
  EXPECT_TRUE(t.candidates(1, 7).empty());   // no rule for dest 7
}

TEST(RuleTable, LookupCacheInvalidatedByMutation) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 100}}), tag(7, 1));
  EXPECT_EQ(t.candidates(5, 9).front().fwd, 100);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 300}}), tag(7, 1));
  EXPECT_EQ(t.candidates(5, 9).front().fwd, 300);
  t.del_all(7);
  EXPECT_TRUE(t.candidates(5, 9).empty());
}

TEST(RuleTable, LookupCacheSurvivesSteadyRounds) {
  // Steady state: each owner re-installs the same immutable list under a
  // fresh round tag. One header looked up after every owner's round misses
  // only the first time, with one owner and with three.
  for (const int n_owners : {1, 3}) {
    RuleTable t({1024});
    std::vector<proto::RuleListPtr> lists;
    for (int k = 0; k < n_owners; ++k) {
      const NodeId cid = 7 + k;
      lists.push_back(rules_of(cid, 0, {{kNoNode, 9, 3, 100 + k}}));
      t.new_round(cid, tag(cid, 1), 2);
      t.update_rules(cid, lists.back(), tag(cid, 1));
    }
    for (std::uint32_t round = 2; round <= 11; ++round) {
      for (int k = 0; k < n_owners; ++k) {
        const NodeId cid = 7 + k;
        t.new_round(cid, tag(cid, round), 2);
        t.update_rules(cid, lists[static_cast<std::size_t>(k)],
                       tag(cid, round));
        EXPECT_EQ(t.lookup(5, 9).size(), static_cast<std::size_t>(n_owners));
      }
    }
    const std::uint64_t lookups = 10u * static_cast<std::uint64_t>(n_owners);
    EXPECT_EQ(t.cache_stats().misses, 1u) << n_owners << " owners";
    EXPECT_EQ(t.cache_stats().hits, lookups - 1) << n_owners << " owners";
    EXPECT_EQ(t.flow_stats().lookups, lookups);
  }
}

TEST(RuleTable, LookupCacheMissesOnEveryInvalidation) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 100}}), tag(7, 1));
  // Each step must cost exactly one miss on (5, 9), and the lookup right
  // after it must hit.
  const auto miss_then_hit = [&t](const char* what) {
    const RuleTable::CacheStats before = t.cache_stats();
    (void)t.lookup(5, 9);
    (void)t.lookup(5, 9);
    EXPECT_EQ(t.cache_stats().misses, before.misses + 1) << what;
    EXPECT_EQ(t.cache_stats().hits, before.hits + 1) << what;
  };
  miss_then_hit("first lookup");
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 300}}), tag(7, 1));
  miss_then_hit("changed list");
  EXPECT_EQ(t.lookup(5, 9).front().fwd, 300);
  t.del_all(7);
  miss_then_hit("del_all");
  EXPECT_TRUE(t.lookup(5, 9).empty());
  t.new_round(7, tag(7, 2), 2);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 100}}), tag(7, 2));
  miss_then_hit("reinstall");
  Rng rng(3);
  t.corrupt(rng, 16);
  miss_then_hit("corrupt");
  EXPECT_TRUE(t.install_flow({1, 5, 9, /*prt=*/8, 42}));
  miss_then_hit("flow install");
  EXPECT_EQ(t.lookup(5, 9).front().fwd, 42);
}

TEST(RuleTable, CachedCandidatesMatchAFreshTableUnderRandomMutations) {
  // One operation stream drives a table that looks headers up after every
  // step (so its cache is exercised across every kind of mutation); at each
  // checkpoint a table that replays the stream without lookups — an empty
  // cache, so every candidate list is built from scratch — must agree on
  // every header.
  enum Kind { kNewRound, kUpdate, kDelAll, kInstall, kRemove, kCorrupt, kClear };
  struct Op {
    Kind kind = kNewRound;
    NodeId cid = 0;
    std::uint32_t round = 0;
    int retention = 2;
    std::size_t list = 0;
    std::uint64_t value = 0;  ///< flow id or corruption seed
  };
  const std::vector<NodeId> hdr = {1, 2, 3, 4};
  const auto flow = [&hdr](std::uint64_t id) {
    return FlowRule{id, hdr[id % 4], hdr[(id / 4) % 4],
                    static_cast<Priority>(id % 5), static_cast<NodeId>(id % 3)};
  };
  const auto apply = [&flow](RuleTable& t, const Op& op,
                             const std::vector<proto::RuleListPtr>& pool) {
    switch (op.kind) {
      case kNewRound:
        t.new_round(op.cid, tag(op.cid, op.round), op.retention);
        break;
      case kUpdate:
        t.update_rules(op.cid, pool[op.list], tag(op.cid, op.round));
        break;
      case kDelAll: t.del_all(op.cid); break;
      case kInstall: (void)t.install_flow(flow(op.value)); break;
      case kRemove: (void)t.remove_flow(op.value); break;
      case kCorrupt: {
        Rng r(op.value);
        t.corrupt(r, 6);
        break;
      }
      case kClear: t.clear(); break;
    }
  };
  const auto same = [](const std::vector<Candidate>& a,
                       const std::vector<Candidate>& b) {
    const auto fields = [](const Candidate& c) {
      return std::tie(c.fwd, c.prt, c.specificity, c.tag_rank, c.cid);
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](const Candidate& x, const Candidate& y) {
                        return fields(x) == fields(y);
                      });
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    // A small pool of immutable lists, so layouts recur by pointer.
    std::vector<proto::RuleListPtr> pool;
    for (int i = 0; i < 6; ++i) {
      std::vector<std::tuple<NodeId, NodeId, Priority, NodeId>> specs;
      for (int j = 0; j < 4; ++j) {
        const NodeId src = rng.chance(0.3) ? kNoNode : hdr[rng.next_below(4)];
        specs.emplace_back(src, hdr[rng.next_below(4)],
                           static_cast<Priority>(rng.next_below(4)),
                           static_cast<NodeId>(rng.next_below(3)));
      }
      pool.push_back(rules_of(7, 0, specs));
    }
    RuleTable cached({64});
    std::vector<Op> ops;
    std::map<NodeId, std::uint32_t> rounds;
    for (int step = 0; step < 300; ++step) {
      Op op;
      const std::uint64_t pick = rng.next_below(100);
      op.cid = 7 + static_cast<NodeId>(rng.next_below(3));
      op.retention = rng.chance(0.8) ? 2 : 3;
      op.list = rng.next_below(pool.size());
      op.value = 1 + rng.next_below(32);
      if (pick < 30) {
        op.kind = kNewRound;
        op.round = ++rounds[op.cid];
      } else if (pick < 65) {
        op.kind = kUpdate;
        op.round = rounds[op.cid] + (rng.chance(0.2) ? 1 : 0);
      } else if (pick < 70) {
        op.kind = kDelAll;
      } else if (pick < 84) {
        op.kind = kInstall;
      } else if (pick < 96) {
        op.kind = kRemove;
      } else if (pick < 99) {
        op.kind = kCorrupt;
      } else {
        op.kind = kClear;
      }
      ops.push_back(op);
      apply(cached, op, pool);
      for (int k = 0; k < 3; ++k) {
        (void)cached.candidates(hdr[rng.next_below(4)], hdr[rng.next_below(4)]);
      }
      if (step % 10 != 9) continue;
      RuleTable fresh({64});
      for (const Op& o : ops) apply(fresh, o, pool);
      for (NodeId src : hdr) {
        for (NodeId dst : hdr) {
          ASSERT_TRUE(same(cached.candidates(src, dst),
                           fresh.candidates(src, dst)))
              << "seed " << seed << " step " << step << " header " << src
              << "->" << dst;
        }
      }
    }
    EXPECT_GT(cached.cache_stats().hits, 0u) << "seed " << seed;
  }
}

TEST(RuleTable, CloggedMemoryEvictsLeastRecentlyUpdatedOwner) {
  RuleTable t({/*max_rules=*/4});
  t.new_round(1, tag(1, 1), 2);
  t.update_rules(1, rules_of(1, 0, {{1, 5, 3, 2}, {1, 6, 3, 2}}), tag(1, 1));
  t.new_round(2, tag(2, 1), 2);
  t.update_rules(2, rules_of(2, 0, {{2, 5, 3, 2}, {2, 6, 3, 2}}), tag(2, 1));
  EXPECT_EQ(t.total_rules(), 4u);
  // Owner 3 arrives; owner 1 (least recently updated) is evicted.
  t.new_round(3, tag(3, 1), 2);
  t.update_rules(3, rules_of(3, 0, {{3, 5, 3, 2}, {3, 6, 3, 2}}), tag(3, 1));
  EXPECT_LE(t.total_rules(), 4u);
  EXPECT_FALSE(t.has_rules_of(1));
  EXPECT_TRUE(t.has_rules_of(2));
  EXPECT_TRUE(t.has_rules_of(3));
  EXPECT_EQ(t.evictions(), 1u);
}

TEST(RuleTable, OwnersSummaryIncludesMetaOnlyOwners) {
  RuleTable t({1024});
  t.new_round(9, tag(9, 3), 2);  // newRound without updateRule yet
  const auto owners = t.owners_summary();
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0].cid, 9);
  EXPECT_EQ(owners[0].count, 0u);
  EXPECT_EQ(owners[0].tag.epoch, 3u);
}

// --- Flow store (capacity-limited, property-based) ---------------------------

/// Naive reference model of the flow store: a flat id-sorted array plus
/// linear scans, mirroring the documented semantics (priority-masked LRU /
/// reject-lowest, stamp refresh on reinstall and on lookup, flows evicted
/// lowest class first by a management install, corruption drawn in id
/// order) with none of the index structures. The differential tests drive
/// RuleTable and this model with the same operation stream and require
/// identical observable state.
struct FlowRef {
  struct Entry {
    FlowRule rule;
    std::uint64_t stamp = 0;
    std::uint64_t seq = 0;  ///< match-list append order (install time)
  };
  std::size_t max_rules = 0;
  std::size_t mgmt = 0;  ///< protected management rules sharing the table
  EvictionPolicy policy = EvictionPolicy::PriorityLru;
  std::vector<Entry> flows;  ///< ascending id
  std::uint64_t stamp = 0, seq = 0;
  std::uint64_t installs = 0, removals = 0, rejects = 0, evictions = 0;
  std::uint64_t peak = 0, lookups = 0, lookup_cost = 0;

  std::size_t occupancy() const { return mgmt + flows.size(); }

  void note_peak() { peak = std::max<std::uint64_t>(peak, occupancy()); }

  /// Where `id` is or would be stored.
  std::vector<Entry>::iterator position(std::uint64_t id) {
    return std::lower_bound(
        flows.begin(), flows.end(), id,
        [](const Entry& e, std::uint64_t x) { return e.rule.id < x; });
  }

  std::vector<Entry>::iterator find(std::uint64_t id) {
    const auto it = position(id);
    return it != flows.end() && it->rule.id == id ? it : flows.end();
  }

  /// The entry of the lowest priority, the oldest among that priority.
  std::vector<Entry>::iterator lowest() {
    auto victim = flows.begin();
    for (auto it = flows.begin(); it != flows.end(); ++it) {
      if (it->rule.prt < victim->rule.prt ||
          (it->rule.prt == victim->rule.prt && it->stamp < victim->stamp)) {
        victim = it;
      }
    }
    return victim;
  }

  std::vector<Entry>::iterator pick_victim(Priority incoming) {
    if (flows.empty()) return flows.end();
    if (policy == EvictionPolicy::RejectLowest) {
      const auto victim = lowest();
      return victim->rule.prt < incoming ? victim : flows.end();
    }
    auto victim = flows.end();
    for (auto it = flows.begin(); it != flows.end(); ++it) {
      if (it->rule.prt > incoming) continue;
      if (victim == flows.end() || it->stamp < victim->stamp) victim = it;
    }
    return victim;
  }

  bool install(const FlowRule& r) {
    if (r.id == 0) return false;
    if (auto it = find(r.id); it != flows.end()) {
      it->rule.prt = r.prt;
      it->rule.fwd = r.fwd;
      it->stamp = ++stamp;
      return true;
    }
    if (occupancy() >= max_rules) {
      const auto victim = pick_victim(r.prt);
      if (victim == flows.end()) {
        ++rejects;
        return false;
      }
      flows.erase(victim);
      ++evictions;
    }
    Entry e;
    e.rule = r;
    e.stamp = ++stamp;
    e.seq = ++seq;
    flows.insert(position(r.id), e);
    ++installs;
    note_peak();
    return true;
  }

  bool remove(std::uint64_t id) {
    const auto it = find(id);
    if (it == flows.end()) return false;
    flows.erase(it);
    ++removals;
    return true;
  }

  void clear() {
    removals += flows.size();
    flows.clear();
  }

  /// The management rules now number `n`: flows go, lowest priority and
  /// oldest first, until the table fits.
  void set_mgmt(std::size_t n) {
    mgmt = n;
    while (occupancy() > max_rules && !flows.empty()) {
      flows.erase(lowest());
      ++evictions;
    }
  }

  /// The scramble of RuleTable::corrupt on a table with no owners: one
  /// draw per live flow, in ascending id order.
  void corrupt(Rng& rng, NodeId node_space) {
    for (Entry& e : flows) {
      if (rng.chance(0.1)) {
        e.rule.fwd = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(node_space)));
      }
    }
  }

  /// The matching entries in match-list (install) order.
  std::vector<Entry*> matches(NodeId src, NodeId dst) {
    std::vector<Entry*> out;
    for (Entry& e : flows) {
      if (e.rule.src == src && e.rule.dst == dst) out.push_back(&e);
    }
    std::sort(out.begin(), out.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    return out;
  }

  /// candidates() on a header that only flow entries match: the entries in
  /// install order, then the table's (unstable) priority sort and its
  /// de-duplication, so the input order decides ties.
  std::vector<Candidate> candidates(NodeId src, NodeId dst) {
    std::vector<Candidate> out;
    for (const Entry* e : matches(src, dst)) {
      out.push_back(Candidate{e->rule.fwd, e->rule.prt, 2, 0, kNoNode});
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.prt > b.prt;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.fwd == b.fwd && a.prt == b.prt;
                          }),
              out.end());
    return out;
  }

  /// Header lookup: cost accounting plus the LRU refresh of matching
  /// entries, in match-list (install) order like the real table.
  void lookup(NodeId src, NodeId dst) {
    ++lookups;
    std::uint64_t probe = 1;
    for (std::size_t occ = occupancy(); occ > 1; occ >>= 1) ++probe;
    const std::vector<Entry*> hits = matches(src, dst);
    lookup_cost += probe + candidates(src, dst).size();
    for (Entry* e : hits) e->stamp = ++stamp;
  }
};

bool same_candidates(const std::vector<Candidate>& a,
                     const std::vector<Candidate>& b) {
  const auto fields = [](const Candidate& c) {
    return std::tie(c.fwd, c.prt, c.specificity, c.tag_rank, c.cid);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const Candidate& x, const Candidate& y) {
                      return fields(x) == fields(y);
                    });
}

/// One random flow-store workload for the differential tests. Flow ids are
/// bound to one header for their lifetime, as the generator guarantees;
/// headers live in [1000, 1000 + header_space) on both axes so they never
/// match a management rule. Each install draws a fresh priority and
/// out-port, so a reinstall may move an entry between classes.
struct ChurnMix {
  EvictionPolicy policy = EvictionPolicy::PriorityLru;
  std::size_t capacity = 16;
  std::uint64_t ids = 40;    ///< flow ids are drawn from [1, ids]
  NodeId header_space = 6;   ///< headers per axis
  Priority classes = 4;      ///< priorities are drawn from [0, classes)
  int steps = 4000;
  int check_every = 97;      ///< full counter and candidate diff period
  /// An owner re-installs a list of 0..max_mgmt protected rules now and
  /// then (0 = no owner); otherwise corrupt() is mixed in.
  std::size_t max_mgmt = 0;
  double clear_share = 1;  ///< of the 2% of steps that may clear_flows()
  std::uint64_t seed = 1;
};

FlowRule flow_of(const ChurnMix& mix, std::uint64_t id, Priority prt,
                 NodeId fwd) {
  FlowRule r;
  r.id = id;
  r.src = 1000 + static_cast<NodeId>(id % static_cast<std::uint64_t>(
                                              mix.header_space));
  r.dst = 1000 + static_cast<NodeId>(
                     (id / static_cast<std::uint64_t>(mix.header_space)) %
                     static_cast<std::uint64_t>(mix.header_space));
  r.prt = prt;
  r.fwd = fwd;
  return r;
}

proto::RuleListPtr mgmt_rules(std::size_t n) {
  std::vector<std::tuple<NodeId, NodeId, Priority, NodeId>> specs;
  for (std::size_t i = 0; i < n; ++i) {
    specs.emplace_back(1, static_cast<NodeId>(5 + i), 3, 2);
  }
  return rules_of(1, 0, specs);
}

void run_churn(const ChurnMix& mix) {
  RuleTable t({mix.capacity});
  t.set_eviction_policy(mix.policy);
  FlowRef ref;
  ref.max_rules = mix.capacity;
  ref.policy = mix.policy;
  if (mix.max_mgmt > 0) {
    t.new_round(1, tag(1, 1), 2);
    t.update_rules(1, mgmt_rules(2), tag(1, 1));
    ref.set_mgmt(2);
  }
  Rng rng(mix.seed);
  const auto header_of = [&mix](std::uint64_t id) {
    const FlowRule h = flow_of(mix, id, 0, 0);
    return std::pair{h.src, h.dst};
  };
  const auto where = [&mix](int step) {
    return "seed " + std::to_string(mix.seed) + " step " +
           std::to_string(step);
  };
  std::uint64_t corruptions = 0, pressure_evictions = 0;
  for (int step = 0; step < mix.steps; ++step) {
    const std::uint64_t id = 1 + rng.next_below(mix.ids);
    const auto op = rng.next_below(100);
    if (op < 45) {
      const FlowRule r = flow_of(
          mix, id,
          static_cast<Priority>(
              rng.next_below(static_cast<std::uint64_t>(mix.classes))),
          static_cast<NodeId>(rng.next_below(3)));
      ASSERT_EQ(t.install_flow(r), ref.install(r)) << where(step);
    } else if (op < 65) {
      ASSERT_EQ(t.remove_flow(id), ref.remove(id)) << where(step);
    } else if (op < 95) {
      const auto [src, dst] = header_of(id);
      const std::vector<Candidate> expect = ref.candidates(src, dst);
      ASSERT_TRUE(same_candidates(t.lookup(src, dst), expect)) << where(step);
      ref.lookup(src, dst);
    } else if (op < 98 && mix.max_mgmt > 0) {
      const std::size_t n = rng.next_below(mix.max_mgmt + 1);
      const std::uint64_t before = ref.evictions;
      t.update_rules(1, mgmt_rules(n), tag(1, 1));
      ref.set_mgmt(n);
      pressure_evictions += ref.evictions - before;
    } else if (op < 98) {
      const std::uint64_t seed = rng.next_u64();
      Rng mine(seed), theirs(seed);
      t.corrupt(mine, 6);
      ref.corrupt(theirs, 6);
      ASSERT_EQ(mine.next_u64(), theirs.next_u64())
          << "RNG state after corrupt, " << where(step);
      corruptions += ref.flows.empty() ? 0 : 1;
    } else if (rng.chance(mix.clear_share)) {
      t.clear_flows();
      ref.clear();
    }
    // Cheap invariants every step; full state diff sampled.
    ASSERT_LE(t.occupancy(), std::max(mix.capacity, ref.mgmt)) << where(step);
    ASSERT_EQ(t.flow_rules(), ref.flows.size()) << where(step);
    ASSERT_EQ(t.total_rules(), ref.mgmt) << where(step);
    if (step % mix.check_every != 0) continue;
    const auto& fs = t.flow_stats();
    ASSERT_EQ(fs.installs, ref.installs) << where(step);
    ASSERT_EQ(fs.removals, ref.removals) << where(step);
    ASSERT_EQ(fs.overflow_rejects, ref.rejects) << where(step);
    ASSERT_EQ(fs.flow_evictions, ref.evictions) << where(step);
    ASSERT_EQ(fs.peak_rules, ref.peak) << where(step);
    ASSERT_EQ(fs.lookups, ref.lookups) << where(step);
    ASSERT_EQ(fs.lookup_cost, ref.lookup_cost) << where(step);
    ASSERT_EQ(fs.installs, fs.removals + fs.flow_evictions + t.flow_rules());
    for (NodeId src = 1000; src < 1000 + mix.header_space; ++src) {
      for (NodeId dst = 1000; dst < 1000 + mix.header_space; ++dst) {
        ASSERT_TRUE(same_candidates(t.candidates(src, dst),
                                    ref.candidates(src, dst)))
            << where(step) << " header " << src << "->" << dst;
      }
    }
  }
  // The stream must have reached the paths it is meant to cover.
  EXPECT_GE(ref.peak, mix.capacity);
  EXPECT_GT(ref.evictions, 0u);
  if (mix.policy == EvictionPolicy::RejectLowest) {
    EXPECT_GT(ref.rejects, 0u);
  }
  if (mix.max_mgmt > 0) {
    EXPECT_GT(pressure_evictions, 0u);
  } else {
    EXPECT_GT(corruptions, 0u);
  }
  // End-of-run: identical survivor sets (every eviction picked the same
  // victim on both sides).
  for (const FlowRef::Entry& e : ref.flows) {
    ASSERT_TRUE(t.remove_flow(e.rule.id)) << "missing flow " << e.rule.id;
  }
  ASSERT_EQ(t.flow_rules(), 0u);
  if (mix.max_mgmt > 0) {
    // Management survived all pressure.
    EXPECT_EQ(t.has_rules_of(1), ref.mgmt > 0);
    EXPECT_EQ(t.total_rules(), ref.mgmt);
  }
}

TEST(RuleTableFlows, DifferentialRandomChurnAgainstNaiveModel) {
  for (const auto policy :
       {EvictionPolicy::PriorityLru, EvictionPolicy::RejectLowest}) {
    for (const std::size_t max_mgmt : {std::size_t{0}, std::size_t{4}}) {
      ChurnMix mix;
      mix.policy = policy;
      mix.max_mgmt = max_mgmt;
      mix.seed = 0xf10c ^ (static_cast<std::uint64_t>(policy) << 8) ^ max_mgmt;
      ASSERT_NO_FATAL_FAILURE(run_churn(mix));
    }
  }
}

TEST(RuleTableFlows, DifferentialEqualPrioritiesOnFewHeaders) {
  // Four headers, one priority class (two under reject-lowest, which needs
  // a higher class to evict at all): lookups tie several live flows, so the
  // install order of the match lists decides the candidates.
  for (const auto policy :
       {EvictionPolicy::PriorityLru, EvictionPolicy::RejectLowest}) {
    ChurnMix mix;
    mix.policy = policy;
    mix.header_space = 2;
    mix.ids = 24;
    mix.classes = policy == EvictionPolicy::RejectLowest ? 2 : 1;
    mix.seed = 0xe9 + static_cast<std::uint64_t>(policy);
    ASSERT_NO_FATAL_FAILURE(run_churn(mix));
  }
}

TEST(RuleTableFlows, DifferentialLargeChurnAgainstNaiveModel) {
  // A churn-sized table: 2000 entries, 4 classes, ids that outnumber the
  // capacity, so the id index grows, deletes and reuses slab slots.
  for (const auto policy :
       {EvictionPolicy::PriorityLru, EvictionPolicy::RejectLowest}) {
    ChurnMix mix;
    mix.policy = policy;
    mix.capacity = 2000;
    mix.ids = 5000;
    mix.header_space = 24;
    mix.steps = 200000;
    mix.check_every = 9973;
    mix.max_mgmt = 64;
    mix.clear_share = 0.0005;
    mix.seed = 0x5ab + static_cast<std::uint64_t>(policy);
    ASSERT_NO_FATAL_FAILURE(run_churn(mix));
  }
}

TEST(RuleTableFlows, CorruptDrawsOverFlowsInIdOrder) {
  // Ids installed out of order; corrupt() must draw one chance per live
  // flow in ascending id order and leave the RNG where the model does.
  RuleTable t({64});
  FlowRef ref;
  ref.max_rules = 64;
  ChurnMix mix;
  const std::uint64_t ids[] = {17, 3, 40, 9, 28, 1, 33, 12, 5, 21, 36};
  for (const std::uint64_t id : ids) {
    const FlowRule r = flow_of(mix, id, static_cast<Priority>(id % 3), 1);
    ASSERT_TRUE(t.install_flow(r));
    ASSERT_TRUE(ref.install(r));
  }
  ASSERT_TRUE(t.remove_flow(9));
  ASSERT_TRUE(ref.remove(9));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng mine(seed), theirs(seed);
    t.corrupt(mine, 50);
    ref.corrupt(theirs, 50);
    ASSERT_EQ(mine.next_u64(), theirs.next_u64()) << "seed " << seed;
    for (NodeId src = 1000; src < 1006; ++src) {
      for (NodeId dst = 1000; dst < 1006; ++dst) {
        ASSERT_TRUE(same_candidates(t.candidates(src, dst),
                                    ref.candidates(src, dst)))
            << "seed " << seed << " header " << src << "->" << dst;
      }
    }
  }
}

TEST(RuleTableFlows, RejectLowestRefusesNonBeatingPriorities) {
  RuleTable t({/*max_rules=*/2});
  t.set_eviction_policy(EvictionPolicy::RejectLowest);
  EXPECT_TRUE(t.install_flow({1, 10, 20, /*prt=*/5, 3}));
  EXPECT_TRUE(t.install_flow({2, 11, 21, /*prt=*/5, 3}));
  // Equal priority does not displace (must strictly beat the lowest).
  EXPECT_FALSE(t.install_flow({3, 12, 22, /*prt=*/5, 3}));
  EXPECT_EQ(t.flow_stats().overflow_rejects, 1u);
  // Higher priority evicts the lowest class's oldest entry (id 1).
  EXPECT_TRUE(t.install_flow({4, 13, 23, /*prt=*/7, 3}));
  EXPECT_EQ(t.flow_stats().flow_evictions, 1u);
  EXPECT_FALSE(t.remove_flow(1));  // the victim
  EXPECT_TRUE(t.remove_flow(2));
  EXPECT_TRUE(t.remove_flow(4));
}

TEST(RuleTableFlows, PriorityLruSparesClassesAboveTheNewcomer) {
  RuleTable t({/*max_rules=*/2});
  EXPECT_TRUE(t.install_flow({1, 10, 20, /*prt=*/9, 3}));
  EXPECT_TRUE(t.install_flow({2, 11, 21, /*prt=*/9, 3}));
  // Priority-masked LRU: nothing at or below prt 4 exists, so reject.
  EXPECT_FALSE(t.install_flow({3, 12, 22, /*prt=*/4, 3}));
  EXPECT_EQ(t.flow_stats().overflow_rejects, 1u);
  // An equal-priority newcomer evicts the LRU entry of its own class.
  EXPECT_TRUE(t.install_flow({4, 13, 23, /*prt=*/9, 3}));
  EXPECT_FALSE(t.remove_flow(1));
  EXPECT_TRUE(t.remove_flow(2));
}

TEST(RuleTableFlows, LookupRefreshKeepsPopularFlowsAlive) {
  RuleTable t({/*max_rules=*/2});
  EXPECT_TRUE(t.install_flow({1, 10, 20, 0, 3}));
  EXPECT_TRUE(t.install_flow({2, 11, 21, 0, 3}));
  (void)t.lookup(10, 20);  // flow 1 becomes the most recently used
  EXPECT_TRUE(t.install_flow({3, 12, 22, 0, 3}));
  EXPECT_TRUE(t.remove_flow(1));   // survived: the lookup refreshed it
  EXPECT_FALSE(t.remove_flow(2));  // the LRU victim
}

TEST(RuleTableFlows, ManagementInstallEvictsFlowsNeverTheReverse) {
  RuleTable t({/*max_rules=*/4});
  t.new_round(1, tag(1, 1), 2);
  t.update_rules(1, rules_of(1, 0, {{1, 5, 3, 2}, {1, 6, 3, 2}}), tag(1, 1));
  EXPECT_TRUE(t.install_flow({1, 10, 20, 9, 3}));
  EXPECT_TRUE(t.install_flow({2, 11, 21, 9, 3}));
  EXPECT_EQ(t.occupancy(), 4u);
  // A flow at the cap cannot displace management rules: with no flow victim
  // at or below prt 0 it is rejected outright.
  RuleTable t2({/*max_rules=*/2});
  t2.new_round(1, tag(1, 1), 2);
  t2.update_rules(1, rules_of(1, 0, {{1, 5, 3, 2}, {1, 6, 3, 2}}), tag(1, 1));
  EXPECT_FALSE(t2.install_flow({9, 10, 20, 99, 3}));
  EXPECT_EQ(t2.total_rules(), 2u);
  // A management install under pressure evicts flows first (protected rules
  // stay; the flow store shrinks), charged to flow_evictions.
  t.new_round(2, tag(2, 1), 2);
  t.update_rules(2, rules_of(2, 0, {{2, 5, 3, 2}, {2, 6, 3, 2}}), tag(2, 1));
  EXPECT_TRUE(t.has_rules_of(1));
  EXPECT_TRUE(t.has_rules_of(2));
  EXPECT_EQ(t.total_rules(), 4u);
  EXPECT_EQ(t.flow_rules(), 0u);
  EXPECT_EQ(t.flow_stats().flow_evictions, 2u);
  EXPECT_EQ(t.evictions(), 0u);  // no owner was clog-evicted
}

TEST(RuleTableFlows, FlowEntriesJoinTheCandidateList) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  t.update_rules(7, rules_of(7, 0, {{kNoNode, 9, 3, 100}}), tag(7, 1));
  EXPECT_TRUE(t.install_flow({1, 5, 9, /*prt=*/8, 42}));
  const auto& cands = t.candidates(5, 9);
  ASSERT_GE(cands.size(), 2u);
  // The exact-match flow entry outranks the wildcard management rule.
  EXPECT_EQ(cands.front().fwd, 42);
  // Flow mutations do not advance the monitor epoch (churn is not
  // monitor-observable state).
  const auto epoch = t.epoch();
  EXPECT_TRUE(t.install_flow({2, 6, 9, 1, 43}));
  EXPECT_TRUE(t.remove_flow(2));
  t.clear_flows();
  EXPECT_EQ(t.epoch(), epoch);
}

TEST(RuleTable, CorruptionIsRecoverableByResync) {
  RuleTable t({1024});
  t.new_round(7, tag(7, 1), 2);
  const auto clean = rules_of(7, 0, {{7, 1, 3, 2}, {7, 2, 3, 1}});
  t.update_rules(7, clean, tag(7, 1));
  Rng rng(5);
  t.corrupt(rng, 16);
  // A controller refresh reinstalls the canonical state.
  t.new_round(7, tag(7, 2), 2);
  t.update_rules(7, clean, tag(7, 2));
  t.new_round(7, tag(7, 3), 2);
  t.update_rules(7, clean, tag(7, 3));
  const auto now = t.newest_rules_of(7);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(*now, *clean);
}

}  // namespace
}  // namespace ren::switchd
