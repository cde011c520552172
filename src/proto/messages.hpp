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
#include <string>
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
};
struct DelMngrCmd {
  NodeId k = kNoNode;  ///< manager to remove
};
struct AddMngrCmd {
  NodeId k = kNoNode;  ///< manager to add
};
struct DelAllRulesCmd {
  NodeId k = kNoNode;  ///< delete every rule whose cID == k
};
struct UpdateRuleCmd {
  RuleListPtr rules;  ///< replaces the sender's rules for round `tag`
  Tag tag;
};
struct QueryCmd {
  Tag tag;  ///< round tag echoed in the reply
};

using Command = std::variant<NewRoundCmd, DelMngrCmd, AddMngrCmd,
                             DelAllRulesCmd, UpdateRuleCmd, QueryCmd>;

/// One aggregated configuration+query message (Algorithm 2, line 19).
struct CommandBatch {
  NodeId from = kNoNode;  ///< issuing controller p_i
  std::vector<Command> commands;
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
/// same controller with equal keys encode to identical wire bytes, so
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

// --- Canonical debug encoding ----------------------------------------------
//
// A deterministic byte rendering of a message, including the full rule
// bytes. Not a real wire format: it exists so differential modes (e.g.
// Controller::Config::paranoid) can assert that two independently
// constructed messages are byte-equal without hand-writing field-by-field
// comparisons.

namespace detail {
inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
inline void put_id(std::string& out, NodeId v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_tag(std::string& out, const Tag& t) {
  put_id(out, t.owner);
  put_u64(out, t.epoch);
}
}  // namespace detail

inline void debug_encode(const Command& c, std::string& out) {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, NewRoundCmd>) {
          out.push_back(1);
          detail::put_tag(out, v.tag);
          detail::put_u64(out, static_cast<std::uint64_t>(v.retention));
        } else if constexpr (std::is_same_v<T, DelMngrCmd>) {
          out.push_back(2);
          detail::put_id(out, v.k);
        } else if constexpr (std::is_same_v<T, AddMngrCmd>) {
          out.push_back(3);
          detail::put_id(out, v.k);
        } else if constexpr (std::is_same_v<T, DelAllRulesCmd>) {
          out.push_back(4);
          detail::put_id(out, v.k);
        } else if constexpr (std::is_same_v<T, UpdateRuleCmd>) {
          out.push_back(5);
          detail::put_tag(out, v.tag);
          detail::put_u64(out, v.rules ? v.rules->size() : 0);
          if (v.rules) {
            for (const Rule& r : *v.rules) {
              detail::put_id(out, r.cid);
              detail::put_id(out, r.sid);
              detail::put_id(out, r.src);
              detail::put_id(out, r.dest);
              detail::put_u64(out, static_cast<std::uint64_t>(r.prt));
              detail::put_id(out, r.fwd);
            }
          }
        } else if constexpr (std::is_same_v<T, QueryCmd>) {
          out.push_back(6);
          detail::put_tag(out, v.tag);
        }
      },
      c);
}

inline void debug_encode(const Message& m, std::string& out) {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, CommandBatch>) {
          out.push_back('B');
          detail::put_id(out, v.from);
          detail::put_u64(out, v.commands.size());
          for (const Command& c : v.commands) debug_encode(c, out);
        } else {
          out.push_back('R');
          detail::put_id(out, v.id);
          detail::put_u64(out, v.nc.size());
          for (NodeId n : v.nc) detail::put_id(out, n);
          detail::put_u64(out, v.managers.size());
          for (NodeId n : v.managers) detail::put_id(out, n);
          detail::put_u64(out, v.rule_owners.size());
          for (const RuleOwnerSummary& s : v.rule_owners) {
            detail::put_id(out, s.cid);
            detail::put_tag(out, s.tag);
            detail::put_u64(out, s.count);
          }
          detail::put_u64(out, v.rules_wire_bytes);
          detail::put_tag(out, v.tag_for_querier);
          out.push_back(v.from_controller ? 1 : 0);
        }
      },
      m);
}

[[nodiscard]] inline std::string debug_encode(const Message& m) {
  std::string out;
  debug_encode(m, out);
  return out;
}

}  // namespace ren::proto
