#include "scenario/scenario.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

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

EventKind event_kind_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(EventKind::StopFlowChurn); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown event kind: " + s);
}

namespace {

Event make_event(Time at, EventKind kind) {
  Event e;
  e.at = at;
  e.kind = kind;
  return e;
}

int checked_count(int count) {
  if (count < 1 && count != kCountAxis) {
    throw std::invalid_argument(
        "Scenario: event count must be >= 1 or kCountAxis");
  }
  return count;
}

/// Shared StartAdversary validation (builder API and spec parser): the mode
/// must name an adversary mode or "channel", intensity is a probability, and
/// channel fault probabilities must leave room for delivery.
void check_adversary_event(const Event& e, const std::string& where) {
  if (e.mode != "channel") {
    (void)faults::adversary_mode_from_string(e.mode);  // throws on unknown
    if (e.target != "controller" && e.target != "switch") {
      throw std::invalid_argument(where + ": target must be \"controller\" or "
                                          "\"switch\", got \"" + e.target +
                                  "\"");
    }
  }
  if (e.intensity < 0.0 || e.intensity > 1.0) {
    throw std::invalid_argument(where + ": intensity must be in [0, 1]");
  }
  for (double p : {e.loss, e.duplicate, e.reorder, e.corrupt}) {
    if (p < 0.0 || p >= 1.0) {
      throw std::invalid_argument(
          where + ": channel fault probabilities must be in [0, 1)");
    }
  }
}

/// Shared StartFlowChurn validation (builder API and spec parser); the
/// domains mirror flows::ChurnConfig's constructor checks so a bad spec
/// fails at parse/build time instead of mid-trial.
void check_churn_event(const Event& e, const std::string& where) {
  if (!(e.rate > 0) && e.rate != kRateAxis) {
    throw std::invalid_argument(where +
                                ": rate must be > 0 or \"axis\"");
  }
  if (e.duration <= 0) {
    throw std::invalid_argument(where + ": mean_duration must be > 0");
  }
  if (!(e.alpha > 1.0)) {
    throw std::invalid_argument(where + ": alpha must be > 1");
  }
  if (e.zipf < 0) {
    throw std::invalid_argument(where + ": zipf must be >= 0");
  }
  if (e.dist != "pareto" && e.dist != "poisson") {
    throw std::invalid_argument(where + ": dist must be \"pareto\" or "
                                        "\"poisson\", got \"" + e.dist + "\"");
  }
  if (e.eviction != "priority_lru" && e.eviction != "reject_lowest") {
    throw std::invalid_argument(where + ": eviction must be \"priority_lru\" "
                                        "or \"reject_lowest\", got \"" +
                                e.eviction + "\"");
  }
}

}  // namespace

Scenario& Scenario::expect_converged(Time at, std::string label, Time limit) {
  Event e = make_event(at, EventKind::ExpectConverged);
  e.label = std::move(label);
  e.limit = limit;
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::kill_controller(Time at, int count) {
  Event e = make_event(at, EventKind::KillController);
  e.count = checked_count(count);
  events.push_back(e);
  return *this;
}

Scenario& Scenario::kill_switches(Time at, int count) {
  Event e = make_event(at, EventKind::KillSwitches);
  e.count = checked_count(count);
  events.push_back(e);
  return *this;
}

Scenario& Scenario::fail_links(Time at, int count, bool keep_connected) {
  Event e = make_event(at, EventKind::FailLinks);
  e.count = checked_count(count);
  e.keep_connected = keep_connected;
  events.push_back(e);
  return *this;
}

Scenario& Scenario::restore_links(Time at) {
  events.push_back(make_event(at, EventKind::RestoreLinks));
  return *this;
}

Scenario& Scenario::restart_nodes(Time at) {
  events.push_back(make_event(at, EventKind::RestartNodes));
  return *this;
}

Scenario& Scenario::corrupt_all(Time at) {
  events.push_back(make_event(at, EventKind::CorruptAll));
  return *this;
}

Scenario& Scenario::freeze(Time at) {
  events.push_back(make_event(at, EventKind::Freeze));
  return *this;
}

Scenario& Scenario::unfreeze(Time at) {
  events.push_back(make_event(at, EventKind::Unfreeze));
  return *this;
}

Scenario& Scenario::start_traffic(Time at, std::string label) {
  Event e = make_event(at, EventKind::StartTraffic);
  e.label = std::move(label);
  events.push_back(std::move(e));
  with_hosts = true;
  return *this;
}

Scenario& Scenario::stop_traffic(Time at) {
  events.push_back(make_event(at, EventKind::StopTraffic));
  return *this;
}

Scenario& Scenario::fail_path_link(Time at, Time detection) {
  if (detection < 0)
    throw std::invalid_argument(
        "Scenario::fail_path_link: detection must be >= 0");
  Event e = make_event(at, EventKind::FailPathLink);
  e.detection = detection;
  events.push_back(e);
  return *this;
}

Scenario& Scenario::start_adversary(Time at, std::string mode, int count,
                                    double intensity, std::string target) {
  Event e = make_event(at, EventKind::StartAdversary);
  e.mode = std::move(mode);
  e.count = checked_count(count);
  e.intensity = intensity;
  e.target = std::move(target);
  check_adversary_event(e, "Scenario::start_adversary");
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::channel_faults(Time at, double loss, double corrupt,
                                   double duplicate, double reorder) {
  Event e = make_event(at, EventKind::StartAdversary);
  e.mode = "channel";
  e.loss = loss;
  e.corrupt = corrupt;
  e.duplicate = duplicate;
  e.reorder = reorder;
  check_adversary_event(e, "Scenario::channel_faults");
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::stop_adversary(Time at) {
  events.push_back(make_event(at, EventKind::StopAdversary));
  return *this;
}

Scenario& Scenario::start_flow_churn(Time at, double rate, Time mean_duration,
                                     double alpha, double zipf,
                                     std::string dist, std::string eviction) {
  Event e = make_event(at, EventKind::StartFlowChurn);
  e.rate = rate;
  e.duration = mean_duration;
  e.alpha = alpha;
  e.zipf = zipf;
  e.dist = std::move(dist);
  e.eviction = std::move(eviction);
  check_churn_event(e, "Scenario::start_flow_churn");
  events.push_back(std::move(e));
  return *this;
}

Scenario& Scenario::stop_flow_churn(Time at) {
  events.push_back(make_event(at, EventKind::StopFlowChurn));
  return *this;
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

std::vector<Event> Scenario::sorted_events() const {
  std::vector<Event> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  return sorted;
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

namespace {

void check_spec_int_fits(std::uint64_t v, const char* what) {
  if (v > kMaxSpecInt)
    throw std::invalid_argument(std::string("spec: ") + what +
                                " must be <= 2^53 (JSON numbers cannot hold "
                                "it exactly)");
}

}  // namespace

Json to_spec_json(const Scenario& s) {
  check_spec_int_fits(s.base_seed, "seed");
  check_spec_int_fits(s.max_events, "max_events");
  Json doc;
  doc.set("name", s.name);
  doc.set("description", s.description);
  Json topos;
  for (const auto& t : s.topologies) topos.push_back(t);
  doc.set("topologies", std::move(topos));
  Json ctrls;
  for (int c : s.controllers) ctrls.push_back(c);
  doc.set("controllers", std::move(ctrls));
  doc.set("trials", s.trials);
  doc.set("seed", s.base_seed);
  if (!s.axes.empty()) {
    Json axes;
    for (const Axis& a : s.axes) {
      Json values{JsonArray{}};
      for (double v : a.values) values.push_back(v);
      axes.set(a.name, std::move(values));
    }
    doc.set("axes", std::move(axes));
  }
  if (s.with_hosts) doc.set("with_hosts", true);
  if (s.calibrate_rtt) doc.set("calibrate_rtt", true);
  if (s.max_events > 0) doc.set("max_events", s.max_events);
  Json events{JsonArray{}};
  for (const Event& e : s.events) {
    Json ev;
    ev.set("at_ms", e.at / 1000);
    ev.set("kind", to_string(e.kind));
    auto set_count = [&ev](int count) {
      if (count == kCountAxis) {
        ev.set("count", "axis");
      } else {
        ev.set("count", count);
      }
    };
    switch (e.kind) {
      case EventKind::KillController:
      case EventKind::KillSwitches:
        set_count(e.count);
        break;
      case EventKind::FailLinks:
        set_count(e.count);
        if (!e.keep_connected) ev.set("keep_connected", false);
        break;
      case EventKind::StartTraffic:
        if (!e.label.empty()) ev.set("label", e.label);
        break;
      case EventKind::FailPathLink:
        ev.set("detection_ms", e.detection / 1000);
        break;
      case EventKind::ExpectConverged:
        ev.set("label", e.label);
        ev.set("limit_ms", e.limit / 1000);
        break;
      case EventKind::StartAdversary:
        ev.set("mode", e.mode);
        if (e.mode == "channel") {
          if (e.loss > 0) ev.set("loss", e.loss);
          if (e.duplicate > 0) ev.set("duplicate", e.duplicate);
          if (e.reorder > 0) ev.set("reorder", e.reorder);
          if (e.corrupt > 0) ev.set("corrupt", e.corrupt);
        } else {
          set_count(e.count);
          if (e.intensity != 1.0) ev.set("intensity", e.intensity);
          if (e.target != "controller") ev.set("target", e.target);
        }
        break;
      case EventKind::StartFlowChurn:
        if (e.rate == kRateAxis) {
          ev.set("rate", "axis");
        } else {
          ev.set("rate", e.rate);
        }
        ev.set("mean_duration_ms", e.duration / 1000);
        if (e.alpha != 1.5) ev.set("alpha", e.alpha);
        if (e.zipf != 1.0) ev.set("zipf", e.zipf);
        if (e.dist != "pareto") ev.set("dist", e.dist);
        if (e.eviction != "priority_lru") ev.set("eviction", e.eviction);
        break;
      default:
        break;
    }
    if (e.every > 0) {
      ev.set("every_ms", e.every / 1000);
      ev.set("repeat", e.repeat);
    }
    events.push_back(std::move(ev));
  }
  doc.set("events", std::move(events));
  return doc;
}

namespace {

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

}  // namespace

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
    for (const Json& v : c->as_array())
      s.controllers.push_back(static_cast<int>(v.as_number()));
  }
  s.trials = static_cast<int>(doc.number_or("trials", s.trials));
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
    std::size_t idx = 0;
    for (const Json& ej : evs->as_array()) {
      const std::string where = "events[" + std::to_string(idx++) + "]";
      reject_unknown_keys(ej,
                          {"at_ms", "kind", "count", "keep_connected", "label",
                           "limit_ms", "detection_ms", "every_ms", "repeat",
                           "mode", "intensity", "target", "loss", "duplicate",
                           "reorder", "corrupt", "rate", "mean_duration_ms",
                           "alpha", "zipf", "dist", "eviction"},
                          where);
      Event e;
      e.at = msec(static_cast<std::int64_t>(ej.number_or("at_ms", 0)));
      try {
        e.kind = event_kind_from_string(ej.string_or("kind", ""));
      } catch (const std::invalid_argument& ex) {
        throw std::invalid_argument("spec: " + where + ": " + ex.what());
      }
      if (const Json* cj = ej.find("count")) {
        if (cj->kind() == Json::Kind::String) {
          if (cj->as_string() != "axis") {
            throw std::runtime_error(
                "spec: \"count\" must be a number or the string \"axis\"");
          }
          e.count = kCountAxis;
        } else {
          e.count = static_cast<int>(cj->as_number());
          if (e.count < 1) {
            throw std::runtime_error("spec: \"count\" must be >= 1");
          }
        }
      }
      e.keep_connected = ej.bool_or("keep_connected", true);
      e.limit =
          msec(static_cast<std::int64_t>(ej.number_or("limit_ms", 120'000)));
      e.detection =
          msec(static_cast<std::int64_t>(ej.number_or("detection_ms", 150)));
      if (e.detection < 0)
        throw std::runtime_error("spec: detection_ms must be >= 0");
      e.label = ej.string_or("label", "");
      e.mode = ej.string_or("mode", "");
      e.intensity = ej.number_or("intensity", 1.0);
      e.target = ej.string_or("target", "controller");
      e.loss = ej.number_or("loss", 0.0);
      e.duplicate = ej.number_or("duplicate", 0.0);
      e.reorder = ej.number_or("reorder", 0.0);
      e.corrupt = ej.number_or("corrupt", 0.0);
      if (e.kind == EventKind::StartAdversary) {
        try {
          check_adversary_event(e, "start_adversary");
        } catch (const std::invalid_argument& ex) {
          throw std::invalid_argument("spec: " + where + ": " + ex.what());
        }
      }
      if (const Json* rj = ej.find("rate")) {
        if (rj->kind() == Json::Kind::String) {
          if (rj->as_string() != "axis") {
            throw std::runtime_error(
                "spec: \"rate\" must be a number or the string \"axis\"");
          }
          e.rate = kRateAxis;
        } else {
          e.rate = rj->as_number();
        }
      }
      e.duration = msec(
          static_cast<std::int64_t>(ej.number_or("mean_duration_ms", 200)));
      e.alpha = ej.number_or("alpha", 1.5);
      e.zipf = ej.number_or("zipf", 1.0);
      e.dist = ej.string_or("dist", "pareto");
      e.eviction = ej.string_or("eviction", "priority_lru");
      if (e.kind == EventKind::StartFlowChurn) {
        try {
          check_churn_event(e, "start_flow_churn");
        } catch (const std::invalid_argument& ex) {
          throw std::invalid_argument("spec: " + where + ": " + ex.what());
        }
      }
      e.every = msec(static_cast<std::int64_t>(ej.number_or("every_ms", 0)));
      e.repeat = static_cast<int>(ej.number_or("repeat", 1));
      // Periodicity needs both halves: "every_ms" without "repeat" would
      // silently degenerate to a one-shot, so reject either half alone.
      if (e.every < 0 || (e.every > 0 && e.repeat < 1) ||
          ((ej.find("every_ms") != nullptr) !=
           (ej.find("repeat") != nullptr)))
        throw std::runtime_error(
            "spec: periodic events need both \"every_ms\" (> 0) and "
            "\"repeat\" (>= 1)");
      if (e.every == 0) e.repeat = 1;
      if (e.kind == EventKind::StartTraffic) s.with_hosts = true;
      s.events.push_back(std::move(e));
    }
  }
  if (s.topologies.empty())
    throw std::runtime_error("spec: topologies must not be empty");
  if (s.controllers.empty())
    throw std::runtime_error("spec: controllers must not be empty");
  if (s.trials <= 0) throw std::runtime_error("spec: trials must be positive");
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
