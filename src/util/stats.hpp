// Descriptive statistics used by the benchmark harnesses to reproduce the
// paper's violin plots (median, quartiles, extrema) and the Fig. 17
// correlation table (Pearson r).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ren {

/// Five-number summary matching the paper's violin plots: the white dot
/// (median), the thick black line (q1..q3) and the whiskers (min..max).
struct ViolinSummary {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::size_t n = 0;
};

/// Tail-oriented summary used by the scenario campaign aggregates.
struct PercentileSummary {
  double mean = 0, min = 0, p50 = 0, p90 = 0, p99 = 0, max = 0;
  std::size_t n = 0;
};

class Sample {
 public:
  Sample() = default;
  explicit Sample(std::vector<double> values) : values_(std::move(values)) {}

  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] double mean() const;
  /// Linear-interpolation quantile, q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] ViolinSummary violin() const;
  [[nodiscard]] PercentileSummary percentiles() const;

  /// The paper dismisses the two extrema from 20 measurements before
  /// averaging (Section 6.4); this returns a copy with min & max removed.
  [[nodiscard]] Sample drop_extrema() const;

 private:
  std::vector<double> values_;
};

/// Pearson correlation coefficient of two equal-length series (Fig. 17).
double pearson(const std::vector<double>& a, const std::vector<double>& b);

/// Render a one-line violin summary, e.g. "med=12.3 [q1=10.0 q3=14.1] (min=9 max=16)".
std::string format_violin(const ViolinSummary& v, int precision = 1);

}  // namespace ren
