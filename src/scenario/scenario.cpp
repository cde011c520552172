#include "scenario/scenario.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string_view>
#include <variant>

#include "faults/adversary.hpp"
#include "sim/experiment.hpp"

namespace ren::scenario {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::KillController: return "kill_controller";
    case EventKind::KillSwitches: return "kill_switches";
    case EventKind::FailLinks: return "fail_links";
    case EventKind::RestoreLinks: return "restore_links";
    case EventKind::RestartNodes: return "restart_nodes";
    case EventKind::CorruptAll: return "corrupt_all";
    case EventKind::Freeze: return "freeze";
    case EventKind::Unfreeze: return "unfreeze";
    case EventKind::StartTraffic: return "start_traffic";
    case EventKind::StopTraffic: return "stop_traffic";
    case EventKind::FailPathLink: return "fail_path_link";
    case EventKind::ExpectConverged: return "expect_converged";
    case EventKind::StartAdversary: return "start_adversary";
    case EventKind::StopAdversary: return "stop_adversary";
    case EventKind::StartFlowChurn: return "start_flow_churn";
    case EventKind::StopFlowChurn: return "stop_flow_churn";
  }
  return "?";
}

namespace {

// --- Spec event keys ---------------------------------------------------------

constexpr int kKindCount = static_cast<int>(EventKind::StopFlowChurn) + 1;

/// Event kinds as bits, plus two pseudo-kinds: a start_adversary in
/// "channel" mode writes the channel keys instead of the node-mode ones,
/// and a periodic event (every > 0) writes the every_ms/repeat pair.
using Kinds = std::uint32_t;
constexpr Kinds kChannelStorm = Kinds{1} << kKindCount;
constexpr Kinds kPeriodic = kChannelStorm << 1;
constexpr Kinds kAnyKind = ~kPeriodic;

template <class... Kind>
constexpr Kinds kinds(Kind... k) {
  return ((Kinds{1} << static_cast<int>(k)) | ...);
}

Kinds written_as(const Event& e) {
  const bool storm = e.kind == EventKind::StartAdversary && e.mode == "channel";
  return (storm ? kChannelStorm : kinds(e.kind)) |
         (e.every > 0 ? kPeriodic : 0);
}

using E = Event;
using K = EventKind;

/// The domain a key's value must lie in (meets() and check_value() spell
/// them out), enforced alike on builder events and parsed specs.
enum class Rule {
  Any, Positive, NonNegative, AboveOne, Probability, BelowOne, OneOf,
  AdversaryMode
};

/// One spec event key; kEventFields is the only place the spec names them.
/// The member's type fixes the JSON form (Time: whole milliseconds; int: a
/// count); Event{} holds the default a missing key keeps.
struct EventField {
  std::string_view key;
  std::variant<Time E::*, int E::*, double E::*, bool E::*, std::string E::*,
               EventKind E::*>
      member;
  Kinds always = 0;  ///< kinds that write the key whatever its value
  Kinds if_set = 0;  ///< kinds that write it when it differs from Event{}
  Rule rule = Rule::Any;
  std::string_view values[2] = {};  ///< Rule::OneOf
  bool axis = false;  ///< "axis" (kCountAxis / kRateAxis) is a value too
  bool required = false;
};

constexpr Kinds kAdversary = kinds(K::StartAdversary);  // node modes
constexpr Kinds kChurn = kinds(K::StartFlowChurn);

/// Row order is the written order.
constexpr EventField kEventFields[] = {
    {"at_ms", &E::at, kAnyKind},
    {"kind", &E::kind, kAnyKind, 0, Rule::Any, {}, false, /*required=*/true},
    {"mode", &E::mode, kAdversary | kChannelStorm, 0, Rule::AdversaryMode},
    {"count", &E::count,
     kinds(K::KillController, K::KillSwitches, K::FailLinks) | kAdversary, 0,
     Rule::Positive, {}, /*axis=*/true},
    {"keep_connected", &E::keep_connected, 0, kinds(K::FailLinks)},
    {"label", &E::label, kinds(K::ExpectConverged), kinds(K::StartTraffic)},
    {"limit_ms", &E::limit, kinds(K::ExpectConverged)},
    {"detection_ms", &E::detection, kinds(K::FailPathLink), 0,
     Rule::NonNegative},
    {"intensity", &E::intensity, 0, kAdversary, Rule::Probability},
    {"target", &E::target, 0, kAdversary, Rule::OneOf,
     {"controller", "switch"}},
    {"loss", &E::loss, 0, kChannelStorm, Rule::BelowOne},
    {"duplicate", &E::duplicate, 0, kChannelStorm, Rule::BelowOne},
    {"reorder", &E::reorder, 0, kChannelStorm, Rule::BelowOne},
    {"corrupt", &E::corrupt, 0, kChannelStorm, Rule::BelowOne},
    {"rate", &E::rate, kChurn, 0, Rule::Positive, {}, /*axis=*/true},
    {"mean_duration_ms", &E::duration, kChurn, 0, Rule::Positive},
    {"alpha", &E::alpha, 0, kChurn, Rule::AboveOne},
    {"zipf", &E::zipf, 0, kChurn, Rule::NonNegative},
    {"dist", &E::dist, 0, kChurn, Rule::OneOf, {"pareto", "poisson"}},
    {"eviction", &E::eviction, 0, kChurn, Rule::OneOf,
     {"priority_lru", "reject_lowest"}},
    {"every_ms", &E::every, kPeriodic},  // the periodic pair: a spec gives
    {"repeat", &E::repeat, kPeriodic},   // both or neither
};

constexpr const char* kAxis = "axis";

bool is_axis(const Json& v) {
  return v.kind() == Json::Kind::String && v.as_string() == kAxis;
}

/// A spec count (trials, controllers, an event's count or repeat): a whole
/// number in [1, INT_MAX].
int spec_count(const Json& v) {
  const double x = v.as_number();
  if (!(x >= 1 && x <= INT_MAX && std::floor(x) == x)) {
    throw std::runtime_error("must be a whole number in [1, 2147483647], got " +
                             v.dump());
  }
  return static_cast<int>(x);
}

// The typed conversions of an event value, JSON to member and back; a
// reader's error is prefixed with the event and the key by parse_event.
void read_value(Time& dst, const Json& v, bool) {
  const double ms = v.as_number();
  if (!(ms >= 0 && ms * 1000.0 < static_cast<double>(kTimeNever))) {
    throw std::runtime_error(
        "must be milliseconds >= 0 whose microseconds fit Time, got " +
        v.dump());
  }
  dst = msec(static_cast<std::int64_t>(ms));  // drops a fraction, as written
}
Json value_json(Time t, bool) { return t / 1000; }
void read_value(int& dst, const Json& v, bool axis) {
  dst = axis && is_axis(v) ? kCountAxis : spec_count(v);
}
Json value_json(int v, bool axis) {
  return axis && v == kCountAxis ? Json(kAxis) : Json(v);
}
void read_value(double& dst, const Json& v, bool axis) {
  dst = axis && is_axis(v) ? kRateAxis : v.as_number();
}
Json value_json(double v, bool axis) {
  return axis && v == kRateAxis ? Json(kAxis) : Json(v);
}
void read_value(bool& dst, const Json& v, bool) { dst = v.as_bool(); }
Json value_json(bool v, bool) { return v; }
void read_value(std::string& dst, const Json& v, bool) { dst = v.as_string(); }
Json value_json(const std::string& v, bool) { return v; }
void read_value(EventKind& dst, const Json& v, bool) {
  dst = event_kind_from_string(v.as_string());
}
Json value_json(EventKind k, bool) { return to_string(k); }

/// Whether `v` meets a numeric rule, and the rule as an error states it.
std::pair<bool, const char*> meets(Rule rule, double v) {
  switch (rule) {
    case Rule::Positive: return {v > 0, "> 0"};
    case Rule::NonNegative: return {v >= 0, ">= 0"};
    case Rule::AboveOne: return {v > 1, "> 1"};
    case Rule::Probability: return {v >= 0 && v <= 1, "in [0, 1]"};
    case Rule::BelowOne: return {v >= 0 && v < 1, "in [0, 1)"};
    default: return {true, ""};
  }
}

void check_value(double v, const EventField& f) {
  if (f.axis && v == kRateAxis) return;
  if (const auto [ok, rule] = meets(f.rule, v); !ok) {
    throw std::invalid_argument(std::string(f.key) + " must be " + rule +
                                (f.axis ? " or \"axis\"" : ""));
  }
}
void check_value(Time v, const EventField& f) {
  check_value(static_cast<double>(v), f);
}
void check_value(int v, const EventField& f) {
  if (!(f.axis && v == kCountAxis)) check_value(static_cast<double>(v), f);
}
void check_value(const std::string& v, const EventField& f) {
  if (f.rule == Rule::AdversaryMode && v != "channel") {
    (void)faults::adversary_mode_from_string(v);  // throws on unknown
  }
  if (f.rule == Rule::OneOf && v != f.values[0] && v != f.values[1]) {
    throw std::invalid_argument(
        std::string(f.key) + " must be \"" + std::string(f.values[0]) +
        "\" or \"" + std::string(f.values[1]) + "\", got \"" + v + "\"");
  }
}
void check_value(bool, const EventField&) {}
void check_value(EventKind, const EventField&) {}

bool is_default(const Event& e, const EventField& f) {
  static const Event kDefault;
  return std::visit([&](auto m) { return e.*m == kDefault.*m; }, f.member);
}

/// Check every key `e` writes, and every key it sets, against its rule
/// (builder API and spec parser alike); throws std::invalid_argument.
void check_event(const Event& e, const std::string& where) {
  const Kinds as = written_as(e);
  for (const EventField& f : kEventFields) {
    if (((f.always | f.if_set) & as) == 0 && is_default(e, f)) continue;
    try {
      std::visit([&](auto m) { check_value(e.*m, f); }, f.member);
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument(where + ": " + ex.what());
    }
  }
}

/// Append the event of `kind` at `at` that `fill` completes, once it
/// passes check_event.
template <class Fill = void (*)(Event&)>
Scenario& add(Scenario& s, Time at, EventKind kind,
              Fill fill = [](Event&) {}) {
  Event e;
  e.at = at;
  e.kind = kind;
  fill(e);
  check_event(e, std::string("Scenario::") + to_string(kind));
  s.events.push_back(std::move(e));
  return s;
}

void check_spec_int_fits(std::uint64_t v, const char* what) {
  if (v > kMaxSpecInt)
    throw std::invalid_argument(std::string("spec: ") + what +
                                " must be <= 2^53 (JSON numbers cannot hold "
                                "it exactly)");
}

/// Run `read`, prefixing its error with "spec: `what`: " (same type).
template <class Read>
void in_context(const std::string& what, Read read) {
  try {
    read();
  } catch (const std::invalid_argument& ex) {
    throw std::invalid_argument("spec: " + what + ": " + ex.what());
  } catch (const std::runtime_error& ex) {
    throw std::runtime_error("spec: " + what + ": " + ex.what());
  }
}

void reject_unknown_keys(const Json& obj, const std::set<std::string>& known,
                         const std::string& where) {
  for (const auto& [k, v] : obj.as_object()) {
    (void)v;
    if (known.find(k) == known.end())
      throw std::runtime_error("spec: unknown key \"" + k + "\" in " + where);
  }
}

/// Read a non-negative integer spec field, validating the double *before*
/// the cast (a negative or huge value must be a loud error, not undefined
/// behavior of the float-to-unsigned conversion).
std::uint64_t spec_uint(const Json& doc, const char* key, std::uint64_t dflt,
                        const char* what) {
  const double v = doc.number_or(key, static_cast<double>(dflt));
  if (v < 0 || v > static_cast<double>(kMaxSpecInt)) {
    throw std::invalid_argument(std::string("spec: ") + what +
                                " must be in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(v);
}

/// Required integer parameter of an object-form topology entry.
long long topo_int(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || v->kind() != Json::Kind::Number) {
    throw std::runtime_error(std::string("spec: topology object needs a "
                                         "numeric \"") + key + "\"");
  }
  return static_cast<long long>(v->as_number());
}

/// Canonicalize one "topologies" entry: plain strings pass through (they are
/// already the topo::resolve() grammar); object form maps onto it:
///   {"kind": "builtin", "name": "B4"}
///   {"kind": "fat_tree", "k": 16}
///   {"kind": "random_wan", "nodes": 1024, "m": 2, "seed": 1}
///   {"kind": "isp", "nodes": 120, "diameter": 9, "seed": 1}
///   {"kind": "file", "path": "maps/1755.cch", "format": "rocketfuel"}
std::string topology_spec_from_json(const Json& v) {
  if (v.kind() == Json::Kind::String) return v.as_string();
  if (!v.is_object()) {
    throw std::runtime_error(
        "spec: each topology must be a spec string or an object with a "
        "\"kind\"");
  }
  const std::string kind = v.string_or("kind", "");
  if (kind == "builtin") {
    reject_unknown_keys(v, {"kind", "name"}, "topology");
    const std::string name = v.string_or("name", "");
    if (name.empty()) {
      throw std::runtime_error("spec: builtin topology needs a \"name\"");
    }
    return name;
  }
  if (kind == "fat_tree") {
    reject_unknown_keys(v, {"kind", "k"}, "topology");
    return "fat_tree:k=" + std::to_string(topo_int(v, "k"));
  }
  if (kind == "random_wan") {
    reject_unknown_keys(v, {"kind", "nodes", "m", "seed"}, "topology");
    std::string spec = "random_wan:nodes=" + std::to_string(topo_int(v, "nodes"));
    if (v.find("m") != nullptr) spec += ",m=" + std::to_string(topo_int(v, "m"));
    if (v.find("seed") != nullptr) {
      spec += ",seed=" + std::to_string(topo_int(v, "seed"));
    }
    return spec;
  }
  if (kind == "isp") {
    reject_unknown_keys(v, {"kind", "nodes", "diameter", "seed"}, "topology");
    std::string spec = "isp:nodes=" + std::to_string(topo_int(v, "nodes")) +
                       ",diameter=" + std::to_string(topo_int(v, "diameter"));
    if (v.find("seed") != nullptr) {
      spec += ",seed=" + std::to_string(topo_int(v, "seed"));
    }
    return spec;
  }
  if (kind == "file") {
    reject_unknown_keys(v, {"kind", "path", "format"}, "topology");
    const std::string path = v.string_or("path", "");
    if (path.empty()) {
      throw std::runtime_error("spec: file topology needs a \"path\"");
    }
    const std::string format = v.string_or("format", "");
    return (format.empty() ? "file" : format) + ":" + path;
  }
  throw std::runtime_error(
      "spec: unknown topology kind \"" + kind +
      "\" (want builtin, fat_tree, random_wan, isp, or file)");
}

/// One "events" entry, read through kEventFields; `where` is "events[i]".
Event parse_event(const Json& ej, const std::string& where) {
  static const std::set<std::string> kKeys = [] {
    std::set<std::string> keys;
    for (const EventField& f : kEventFields) keys.emplace(f.key);
    return keys;
  }();
  reject_unknown_keys(ej, kKeys, where);
  Event e;
  std::string periodic_given, periodic_missing;
  for (const EventField& f : kEventFields) {
    const std::string key(f.key);
    const Json* v = ej.find(key);
    if (f.always == kPeriodic) (v ? periodic_given : periodic_missing) = key;
    if (v == nullptr && f.required) {
      throw std::invalid_argument("spec: " + where + ": missing \"" + key +
                                  "\"");
    }
    if (v == nullptr) continue;
    in_context(where + ": \"" + key + "\"", [&] {
      std::visit([&](auto m) { read_value(e.*m, *v, f.axis); }, f.member);
    });
  }
  // Either half of the pair alone would silently be a one-shot event.
  if (!periodic_given.empty() && !periodic_missing.empty()) {
    throw std::runtime_error("spec: " + where + ": \"" + periodic_given +
                             "\" needs \"" + periodic_missing + "\"");
  }
  if (e.every == 0) e.repeat = 1;
  in_context(where, [&] { check_event(e, to_string(e.kind)); });
  return e;
}

}  // namespace

EventKind event_kind_from_string(const std::string& s) {
  for (int k = 0; k < kKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown event kind: " + s);
}

Scenario& Scenario::expect_converged(Time at, std::string label, Time limit) {
  return add(*this, at, EventKind::ExpectConverged, [&](Event& e) {
    e.label = std::move(label);
    e.limit = limit;
  });
}

Scenario& Scenario::kill_controller(Time at, int count) {
  return add(*this, at, EventKind::KillController,
             [&](Event& e) { e.count = count; });
}

Scenario& Scenario::kill_switches(Time at, int count) {
  return add(*this, at, EventKind::KillSwitches,
             [&](Event& e) { e.count = count; });
}

Scenario& Scenario::fail_links(Time at, int count, bool keep_connected) {
  return add(*this, at, EventKind::FailLinks, [&](Event& e) {
    e.count = count;
    e.keep_connected = keep_connected;
  });
}

Scenario& Scenario::restore_links(Time at) {
  return add(*this, at, EventKind::RestoreLinks);
}

Scenario& Scenario::restart_nodes(Time at) {
  return add(*this, at, EventKind::RestartNodes);
}

Scenario& Scenario::corrupt_all(Time at) {
  return add(*this, at, EventKind::CorruptAll);
}

Scenario& Scenario::freeze(Time at) {
  return add(*this, at, EventKind::Freeze);
}

Scenario& Scenario::unfreeze(Time at) {
  return add(*this, at, EventKind::Unfreeze);
}

Scenario& Scenario::start_traffic(Time at, std::string label) {
  with_hosts = true;
  return add(*this, at, EventKind::StartTraffic,
             [&](Event& e) { e.label = std::move(label); });
}

Scenario& Scenario::stop_traffic(Time at) {
  return add(*this, at, EventKind::StopTraffic);
}

Scenario& Scenario::fail_path_link(Time at, Time detection) {
  return add(*this, at, EventKind::FailPathLink,
             [&](Event& e) { e.detection = detection; });
}

Scenario& Scenario::start_adversary(Time at, std::string mode, int count,
                                    double intensity, std::string target) {
  return add(*this, at, EventKind::StartAdversary, [&](Event& e) {
    e.mode = std::move(mode);
    e.count = count;
    e.intensity = intensity;
    e.target = std::move(target);
  });
}

Scenario& Scenario::channel_faults(Time at, double loss, double corrupt,
                                   double duplicate, double reorder) {
  return add(*this, at, EventKind::StartAdversary, [&](Event& e) {
    e.mode = "channel";
    e.loss = loss;
    e.corrupt = corrupt;
    e.duplicate = duplicate;
    e.reorder = reorder;
  });
}

Scenario& Scenario::stop_adversary(Time at) {
  return add(*this, at, EventKind::StopAdversary);
}

Scenario& Scenario::start_flow_churn(Time at, double rate, Time mean_duration,
                                     double alpha, double zipf,
                                     std::string dist, std::string eviction) {
  return add(*this, at, EventKind::StartFlowChurn, [&](Event& e) {
    e.rate = rate;
    e.duration = mean_duration;
    e.alpha = alpha;
    e.zipf = zipf;
    e.dist = std::move(dist);
    e.eviction = std::move(eviction);
  });
}

Scenario& Scenario::stop_flow_churn(Time at) {
  return add(*this, at, EventKind::StopFlowChurn);
}

Scenario& Scenario::axis(const std::string& name, std::vector<double> values) {
  if (values.empty())
    throw std::invalid_argument("Scenario::axis: \"" + name +
                                "\" needs at least one value");
  // Name + domain validation against the single source of truth (throws on
  // unknown names / out-of-domain values).
  sim::ExperimentConfig scratch;
  for (double v : values) sim::apply_axis(scratch, name, v);
  for (Axis& a : axes) {
    if (a.name == name) {
      a.values = std::move(values);
      return *this;
    }
  }
  axes.push_back({name, std::move(values)});
  return *this;
}

Scenario& Scenario::every(Time period, int times) {
  if (events.empty())
    throw std::logic_error("Scenario::every: no event to make periodic");
  if (period <= 0 || times < 1)
    throw std::invalid_argument(
        "Scenario::every: period must be positive and times >= 1");
  events.back().every = period;
  events.back().repeat = times;
  return *this;
}

std::vector<Event> Scenario::expanded_events() const {
  std::vector<Event> expanded;
  for (const Event& e : events) {
    const int times = e.every > 0 ? std::max(e.repeat, 1) : 1;
    for (int k = 0; k < times; ++k) {
      Event occ = e;
      occ.at = e.at + static_cast<Time>(k) * e.every;
      occ.every = 0;
      occ.repeat = 1;
      if (k > 0 && e.kind == EventKind::ExpectConverged) {
        occ.label = e.label + "_" + std::to_string(k);
      }
      expanded.push_back(std::move(occ));
    }
  }
  std::stable_sort(expanded.begin(), expanded.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  return expanded;
}

bool Scenario::needs_hosts() const {
  if (with_hosts) return true;
  return std::any_of(events.begin(), events.end(), [](const Event& e) {
    return e.kind == EventKind::StartTraffic;
  });
}

// --- Spec serialization -----------------------------------------------------

Json to_spec_json(const Scenario& s) {
  check_spec_int_fits(s.base_seed, "seed");
  check_spec_int_fits(s.max_events, "max_events");
  Json doc;
  doc.set("name", s.name);
  doc.set("description", s.description);
  doc.set("topologies", json_array(s.topologies));
  doc.set("controllers", json_array(s.controllers));
  doc.set("trials", s.trials);
  doc.set("seed", s.base_seed);
  if (!s.axes.empty()) {
    Json axes;
    for (const Axis& a : s.axes) axes.set(a.name, json_array(a.values));
    doc.set("axes", std::move(axes));
  }
  if (s.with_hosts) doc.set("with_hosts", true);
  if (s.calibrate_rtt) doc.set("calibrate_rtt", true);
  if (s.max_events > 0) doc.set("max_events", s.max_events);
  Json events{JsonArray{}};
  for (const Event& e : s.events) {
    Json ev;
    const Kinds as = written_as(e);
    for (const EventField& f : kEventFields) {
      if ((f.always & as) != 0 || ((f.if_set & as) != 0 && !is_default(e, f))) {
        ev.set(std::string(f.key),
               std::visit([&](auto m) { return value_json(e.*m, f.axis); },
                          f.member));
      }
    }
    events.push_back(std::move(ev));
  }
  doc.set("events", std::move(events));
  return doc;
}

Scenario parse_spec_json(const Json& doc) {
  reject_unknown_keys(doc,
                      {"name", "description", "topologies", "controllers",
                       "trials", "seed", "axes", "with_hosts", "calibrate_rtt",
                       "max_events", "events"},
                      "scenario");
  Scenario s;
  s.name = doc.string_or("name", "unnamed");
  s.description = doc.string_or("description", "");
  if (const Json* t = doc.find("topologies")) {
    s.topologies.clear();
    for (const Json& v : t->as_array()) {
      s.topologies.push_back(topology_spec_from_json(v));
    }
  }
  if (const Json* c = doc.find("controllers")) {
    s.controllers.clear();
    for (const Json& v : c->as_array()) {
      in_context("controllers[" + std::to_string(s.controllers.size()) + "]",
                 [&] { s.controllers.push_back(spec_count(v)); });
    }
  }
  if (const Json* t = doc.find("trials")) {
    in_context("trials", [&] { s.trials = spec_count(*t); });
  }
  s.base_seed = spec_uint(doc, "seed", s.base_seed, "seed");
  if (const Json* axes = doc.find("axes")) {
    // Scenario::axis validates names and value domains (loud on typos).
    for (const auto& [name, values] : axes->as_object()) {
      std::vector<double> vs;
      for (const Json& v : values.as_array()) vs.push_back(v.as_number());
      s.axis(name, std::move(vs));
    }
  }
  s.with_hosts = doc.bool_or("with_hosts", false);
  s.calibrate_rtt = doc.bool_or("calibrate_rtt", false);
  s.max_events = spec_uint(doc, "max_events", 0, "max_events");
  if (const Json* evs = doc.find("events")) {
    const JsonArray& list = evs->as_array();
    for (std::size_t i = 0; i < list.size(); ++i) {
      Event e = parse_event(list[i], "events[" + std::to_string(i) + "]");
      if (e.kind == EventKind::StartTraffic) s.with_hosts = true;
      s.events.push_back(std::move(e));
    }
  }
  if (s.topologies.empty())
    throw std::runtime_error("spec: topologies must not be empty");
  if (s.controllers.empty())
    throw std::runtime_error("spec: controllers must not be empty");
  // Churn events must nest: a stop without an active workload (or a second
  // start over a running one) is a spec bug, caught here over the expanded
  // timeline so periodic events are covered too.
  bool churn_active = false;
  for (const Event& e : s.expanded_events()) {
    if (e.kind == EventKind::StartFlowChurn) {
      if (churn_active) {
        throw std::runtime_error(
            "spec: start_flow_churn while flow churn is already active");
      }
      churn_active = true;
    } else if (e.kind == EventKind::StopFlowChurn) {
      if (!churn_active) {
        throw std::runtime_error(
            "spec: stop_flow_churn before any start_flow_churn");
      }
      churn_active = false;
    }
  }
  return s;
}

Scenario parse_spec(const std::string& text) {
  return parse_spec_json(Json::parse(text));
}

}  // namespace ren::scenario
