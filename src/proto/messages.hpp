// Control-plane wire messages (paper Figure 4).
//
// A controller sends an aggregated *command batch* to each reachable node:
//   <'newRound', t> ... update commands ... <'updateRule', rules> <'query', t>
// Switches apply the batch atomically and answer the trailing query with
// their configuration <j, Nc(j), manager(j), rules(j)>. Controllers ignore
// everything but the query, which they answer with their neighborhood and
// the echoed tag (Algorithm 2, line 23).
//
// Fidelity note: in query replies the rule set is carried as per-owner
// summaries (owner id, round tag, rule count) rather than the full rules.
// Algorithm 2 only inspects rule ownership and tags of replies; the full
// rule bytes still count toward message sizes via `rules_wire_bytes`, so the
// Lemma 3 / Fig. 9 measurements reflect the real encoding.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "proto/rule.hpp"
#include "proto/tag.hpp"
#include "util/types.hpp"

namespace ren::proto {

// --- Commands -----------------------------------------------------------

struct NewRoundCmd {
  Tag tag;            ///< becomes the sender's meta-rule (round) tag
  int retention = 2;  ///< rounds of old rule lists the switch retains:
                      ///< 2 = Algorithm 2, 3 = the Section 6.2 variant

  friend bool operator==(const NewRoundCmd&, const NewRoundCmd&) = default;
};
struct DelMngrCmd {
  NodeId k = kNoNode;  ///< manager to remove

  friend bool operator==(const DelMngrCmd&, const DelMngrCmd&) = default;
};
struct AddMngrCmd {
  NodeId k = kNoNode;  ///< manager to add

  friend bool operator==(const AddMngrCmd&, const AddMngrCmd&) = default;
};
struct DelAllRulesCmd {
  NodeId k = kNoNode;  ///< delete every rule whose cID == k

  friend bool operator==(const DelAllRulesCmd&,
                         const DelAllRulesCmd&) = default;
};
struct UpdateRuleCmd {
  RuleListPtr rules;  ///< replaces the sender's rules for round `tag`
  Tag tag;

  /// Compares rule-list *contents*, not pointers; a null list equals an
  /// empty one (the switch installs nothing for either).
  friend bool operator==(const UpdateRuleCmd& a, const UpdateRuleCmd& b) {
    auto content = [](const RuleListPtr& p) -> const RuleList& {
      static const RuleList kNone;
      return p != nullptr ? *p : kNone;
    };
    return a.tag == b.tag && content(a.rules) == content(b.rules);
  }
};
struct QueryCmd {
  Tag tag;  ///< round tag echoed in the reply

  friend bool operator==(const QueryCmd&, const QueryCmd&) = default;
};

using Command = std::variant<NewRoundCmd, DelMngrCmd, AddMngrCmd,
                             DelAllRulesCmd, UpdateRuleCmd, QueryCmd>;

/// One aggregated configuration+query message (Algorithm 2, line 19).
struct CommandBatch {
  NodeId from = kNoNode;  ///< issuing controller p_i
  std::vector<Command> commands;

  friend bool operator==(const CommandBatch&, const CommandBatch&) = default;
};

// --- Replies ------------------------------------------------------------

/// Per-owner rule summary inside a query reply.
struct RuleOwnerSummary {
  NodeId cid = kNoNode;
  Tag tag;
  std::uint32_t count = 0;

  friend bool operator==(const RuleOwnerSummary&,
                         const RuleOwnerSummary&) = default;
};

/// Query reply m = <ID, Nc, Mng, rules> (Figure 4). `tag_for_querier` is the
/// round tag as seen by the querying controller: for switches the tag of the
/// querier's meta rule, for controllers the echoed query tag.
struct QueryReply {
  NodeId id = kNoNode;
  std::vector<NodeId> nc;        ///< respondent's communication neighborhood
  std::vector<NodeId> managers;  ///< switch only; empty for controllers
  std::vector<RuleOwnerSummary> rule_owners;
  std::size_t rules_wire_bytes = 0;  ///< encoded size of the full rule set
  Tag tag_for_querier;
  bool from_controller = false;

  friend bool operator==(const QueryReply&, const QueryReply&) = default;
};

using Message = std::variant<CommandBatch, QueryReply>;
using MessagePtr = std::shared_ptr<const Message>;

inline MessagePtr make_message(Message&& m) {
  return std::make_shared<const Message>(std::move(m));
}

// --- Outbound batch fingerprint (zero-copy fan-out) -------------------------

/// Content fingerprint of an outbound CommandBatch. Two batches from the
/// same controller with equal keys build equal CommandBatches, so
/// successive-batch equality is an O(victims) tag/pointer compare instead of
/// a deep command-list compare: `rules` is the *identity* of the
/// UpdateRuleCmd payload (rule lists are immutable and shared, so pointer
/// equality implies content equality) and `victims` digests the
/// manager/rule-eviction delta in command order.
struct BatchKey {
  Tag tag;                      ///< round tag of newRound/updateRule/query
  int retention = 2;
  bool query_only = false;      ///< controller-class batch: newRound + query
  RuleListPtr rules;            ///< updateRule payload (switch classes)
  std::vector<NodeId> victims;  ///< delMngr+delAllRules targets, ascending

  friend bool operator==(const BatchKey&, const BatchKey&) = default;

  /// Equal up to the round tag — the batch-planner rotation fast path.
  [[nodiscard]] bool same_except_tag(const BatchKey& o) const {
    return retention == o.retention && query_only == o.query_only &&
           rules == o.rules && victims == o.victims;
  }

  /// Commands in the batch this key describes (Fig. 9 accounting):
  /// newRound [+ victim pairs + addMngr + updateRule] + query.
  [[nodiscard]] std::size_t command_count() const {
    return query_only ? 2 : 4 + 2 * victims.size();
  }
};

/// Materialize the command batch a key describes (Algorithm 2, line 19).
inline Message build_batch(NodeId from, const BatchKey& k) {
  CommandBatch b;
  b.from = from;
  b.commands.reserve(k.command_count());
  b.commands.push_back(NewRoundCmd{k.tag, k.retention});
  if (!k.query_only) {
    for (NodeId v : k.victims) {
      b.commands.push_back(DelMngrCmd{v});
      b.commands.push_back(DelAllRulesCmd{v});
    }
    b.commands.push_back(AddMngrCmd{from});
    b.commands.push_back(UpdateRuleCmd{k.rules, k.tag});
  }
  b.commands.push_back(QueryCmd{k.tag});
  return Message{std::move(b)};
}

// --- Wire-size accounting (Lemma 3) ----------------------------------------

inline std::size_t wire_size(const Command& c) {
  return std::visit(
      [](const auto& v) -> std::size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, UpdateRuleCmd>) {
          std::size_t s = 12;
          if (v.rules) s += v.rules->size() * wire_size(Rule{});
          return s;
        } else {
          return 12;  // opcode + one id/tag operand
        }
      },
      c);
}

inline std::size_t wire_size(const CommandBatch& b) {
  std::size_t s = 8;
  for (const auto& c : b.commands) s += wire_size(c);
  return s;
}

inline std::size_t wire_size(const QueryReply& r) {
  return 24 + 4 * (r.nc.size() + r.managers.size()) + r.rules_wire_bytes;
}

inline std::size_t wire_size(const Message& m) {
  return std::visit([](const auto& v) { return wire_size(v); }, m);
}

}  // namespace ren::proto
