#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ren {

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Sample::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> s = values_;
  std::sort(s.begin(), s.end());
  if (q <= 0) return s.front();
  if (q >= 1) return s.back();
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= s.size()) return s.back();
  return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

double Sample::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

ViolinSummary Sample::violin() const {
  ViolinSummary v;
  v.n = values_.size();
  if (values_.empty()) return v;
  v.min = min();
  v.q1 = quantile(0.25);
  v.median = median();
  v.q3 = quantile(0.75);
  v.max = max();
  v.mean = mean();
  return v;
}

PercentileSummary Sample::percentiles() const {
  PercentileSummary p;
  p.n = values_.size();
  if (values_.empty()) return p;
  p.mean = mean();
  p.min = min();
  p.p50 = quantile(0.5);
  p.p90 = quantile(0.9);
  p.p99 = quantile(0.99);
  p.max = max();
  return p;
}

Sample Sample::drop_extrema() const {
  if (values_.size() <= 2) return Sample{};
  std::vector<double> s = values_;
  std::sort(s.begin(), s.end());
  return Sample(std::vector<double>(s.begin() + 1, s.end() - 1));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2)
    throw std::invalid_argument("pearson: series must have equal size >= 2");
  const auto n = static_cast<double>(a.size());
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va == 0 || vb == 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

std::string format_violin(const ViolinSummary& v, int precision) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "med=%.*f [q1=%.*f q3=%.*f] (min=%.*f max=%.*f) n=%zu",
                precision, v.median, precision, v.q1, precision, v.q3,
                precision, v.min, precision, v.max, v.n);
  return buf;
}

}  // namespace ren
