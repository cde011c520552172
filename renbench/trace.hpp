// Span tracing and metric reporting for the repository benchmark.
//
// The traced run records one span per call into a layer, taken from outside
// the library at its public boundary (Simulator::run_until, the controller
// probes, LegitimacyMonitor::check, faults::*, the churn generator and the
// rule table). Spans are kept in memory and written out when the run ends.
// A layer's self time is its spans' duration minus the part their direct
// children cover; allocations are charged to the innermost open span.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace renbench {

enum class Layer : std::uint8_t {
  Setup,          ///< sim::Experiment construction
  RunUntil,       ///< Simulator::run_until: kernel, links, switches, transport
  Steady,         ///< controller do-forever body, current_flows() unchanged
  Recompile,      ///< controller do-forever body that swapped current_flows()
  Fanout,         ///< line-19 fan-out inside a do-forever body
  Check,          ///< LegitimacyMonitor::check
  Fault,          ///< faults::* injections
  ChurnAdvance,   ///< ChurnGenerator::advance
  ChurnPath,      ///< ChurnGenerator::path_hops + next_hop for one flow
  RuleInstall,    ///< RuleTable::install_flow over one flow's hops
  RuleRemove,     ///< RuleTable::remove_flow over one flow's hops
  Teardown,       ///< sim::Experiment destruction
  CompileReplay,  ///< RuleCompiler::compile on the converged true view
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::CompileReplay) + 1;

[[nodiscard]] const char* layer_name(Layer l);

struct Span {
  Layer layer = Layer::Setup;
  std::int32_t parent = -1;   ///< index into Tracer::spans(), -1 = top level
  std::int64_t start_ns = 0;  ///< relative to the tracer's origin
  std::int64_t end_ns = -1;   ///< -1 while open
  std::int64_t child_ns = 0;  ///< time covered by direct children
  std::uint64_t allocs = 0;   ///< operator-new calls while innermost

  [[nodiscard]] std::int64_t self_ns() const {
    return end_ns - start_ns - child_ns;
  }
};

struct LayerTotals {
  double self_s = 0;
  std::uint64_t spans = 0;
  std::uint64_t allocs = 0;
};

/// Operator-new counter of the innermost open span; null while no span
/// counts (only the traced executable's replacement operator new reads it).
extern std::uint64_t* g_alloc_sink;
/// True in the traced executable, whose operator new feeds g_alloc_sink.
[[nodiscard]] bool alloc_hook_linked();

class Tracer {
 public:
  static constexpr int kMaxDepth = 32;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since construction on the steady clock.
  [[nodiscard]] std::int64_t now_ns() const;

  void begin(Layer l) { begin(l, now_ns()); }
  /// Close the innermost span.
  void end() { end(now_ns()); }
  /// Close the innermost span under another layer (a do-forever body is
  /// classified as Steady or Recompile only once it has run).
  void end_as(Layer l) {
    relabel(l);
    end(now_ns());
  }

  /// Explicit-time variants (tests drive these with synthetic clocks).
  void begin(Layer l, std::int64_t t_ns);
  void end(std::int64_t t_ns);
  void relabel(Layer l);

  /// Attribute operator-new calls to the innermost open span.
  void count_allocations(bool on);
  /// The counter an allocation is charged to right now (null when off).
  [[nodiscard]] std::uint64_t* alloc_sink();

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time, span count and allocations over closed spans.
  [[nodiscard]] std::array<LayerTotals, kLayerCount> reduce() const;
  /// Seconds covered by closed top-level spans, excluding `skip`.
  [[nodiscard]] double covered_s(std::optional<Layer> skip = {}) const;

  /// One line per span: layer,parent,start_ns,end_ns,self_ns,allocs.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  struct Open {
    std::int32_t span = -1;
    std::uint64_t allocs = 0;
  };

  void point_sink();

  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::array<Open, kMaxDepth + 1> open_{};  ///< [0] = outside every span
  int depth_ = 0;
  bool counting_ = false;
};

/// num / den, or nothing when den is 0 (a share with no attempts is
/// omitted from the report, never NaN).
[[nodiscard]] std::optional<double> share(std::uint64_t num,
                                          std::uint64_t den);

/// A whole-string unsigned decimal integer: no sign, no spaces, no
/// trailing characters, no overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const std::string& s);

/// The benchmark's result line: metric values with units, in insertion
/// order. Non-finite values are rejected and make the result incorrect.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds num/den as a share; omitted when den is 0.
  void add_share(const std::string& name, std::uint64_t num,
                 std::uint64_t den);

  [[nodiscard]] bool finite() const { return rejected_.empty(); }
  [[nodiscard]] const std::vector<std::string>& rejected() const {
    return rejected_;
  }
  [[nodiscard]] std::optional<double> value(const std::string& name) const;

  /// Human-readable table, one metric per line.
  [[nodiscard]] std::string table() const;
  /// The single-line JSON result: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}. `correct` is also false when a
  /// value was rejected.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> rejected_;
};

}  // namespace renbench
