#include "trace.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace renbench {

std::uint64_t* g_alloc_sink = nullptr;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Setup: return "sim.setup";
    case Layer::RunUntil: return "net.run_until";
    case Layer::Steady: return "core.controller.steady";
    case Layer::Recompile: return "flows.my_rules.recompile";
    case Layer::Fanout: return "core.batch_planner.fanout";
    case Layer::Check: return "core.legitimacy.check";
    case Layer::Fault: return "faults.inject";
    case Layer::ChurnAdvance: return "flows.churn.advance";
    case Layer::ChurnPath: return "flows.churn.path";
    case Layer::RuleInstall: return "switchd.rule_table.install";
    case Layer::RuleRemove: return "switchd.rule_table.remove";
    case Layer::Teardown: return "sim.teardown";
    case Layer::CompileReplay: return "flows.my_rules.compile_replay";
  }
  return "?";
}

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : origin_ns_(steady_ns()) { spans_.reserve(1u << 16); }

Tracer::~Tracer() {
  if (counting_) g_alloc_sink = nullptr;
}

std::int64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

void Tracer::begin(Layer l, std::int64_t t_ns) {
  if (depth_ == kMaxDepth) throw std::logic_error("trace: spans nest too deep");
  // The tracer's own bookkeeping is not charged to any layer.
  g_alloc_sink = nullptr;
  Span s;
  s.layer = l;
  s.parent = open_[static_cast<std::size_t>(depth_)].span;
  s.start_ns = t_ns;
  spans_.push_back(s);
  ++depth_;
  open_[static_cast<std::size_t>(depth_)] =
      Open{static_cast<std::int32_t>(spans_.size() - 1), 0};
  point_sink();
}

void Tracer::relabel(Layer l) {
  if (depth_ == 0) throw std::logic_error("trace: relabel with no open span");
  spans_[static_cast<std::size_t>(open_[static_cast<std::size_t>(depth_)].span)]
      .layer = l;
}

void Tracer::end(std::int64_t t_ns) {
  if (depth_ == 0) throw std::logic_error("trace: end with no open span");
  const Open& o = open_[static_cast<std::size_t>(depth_)];
  Span& s = spans_[static_cast<std::size_t>(o.span)];
  s.end_ns = t_ns;
  s.allocs = o.allocs;
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += t_ns - s.start_ns;
  }
  --depth_;
  point_sink();
}

void Tracer::count_allocations(bool on) {
  counting_ = on;
  point_sink();
}

std::uint64_t* Tracer::alloc_sink() {
  return counting_ ? &open_[static_cast<std::size_t>(depth_)].allocs : nullptr;
}

void Tracer::point_sink() { g_alloc_sink = alloc_sink(); }

std::array<LayerTotals, kLayerCount> Tracer::reduce() const {
  std::array<LayerTotals, kLayerCount> out{};
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;  // still open
    LayerTotals& t = out[static_cast<std::size_t>(s.layer)];
    t.self_s += static_cast<double>(s.self_ns()) * 1e-9;
    t.spans += 1;
    t.allocs += s.allocs;
  }
  return out;
}

double Tracer::covered_s(std::optional<Layer> skip) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent != -1 || s.end_ns < 0) continue;
    if (skip && s.layer == *skip) continue;
    ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("layer,parent,start_ns,end_ns,self_ns,allocs\n", f);
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%d,%lld,%lld,%lld,%llu\n", layer_name(s.layer),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns()),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

std::optional<double> share(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return std::nullopt;
  return static_cast<double>(num) / static_cast<double>(den);
}

std::optional<std::uint64_t> parse_uint(const std::string& s) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    rejected_.push_back(name);
    return;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::add_share(const std::string& name, std::uint64_t num,
                       std::uint64_t den) {
  if (const auto v = share(num, den)) add(name, *v, "ratio");
}

std::optional<double> Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

std::string Report::table() const {
  std::string out;
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  for (const std::string& r : rejected_) {
    out += "  " + r + ": non-finite value rejected\n";
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += (correct && finite()) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace renbench
