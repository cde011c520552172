// Tests for the benchmark's own arithmetic: self time with nested spans,
// allocation attribution, shares with zero denominators, rejection of
// non-finite values and whole-string integer parsing.
//
//   python3 renbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "trace.hpp"

namespace {

using renbench::Layer;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

const renbench::LayerTotals& at(
    const std::array<renbench::LayerTotals, renbench::kLayerCount>& t,
    Layer l) {
  return t[static_cast<std::size_t>(l)];
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void nested_self_time() {
  // RunUntil [0, 100] holds Steady [10, 30] (which holds Fanout [12, 15])
  // and Recompile [40, 45]; Check [100, 110] is a second top-level span.
  renbench::Tracer t;
  t.begin(Layer::RunUntil, 0);
  t.begin(Layer::Steady, 10);
  t.begin(Layer::Fanout, 12);
  CHECK(t.depth() == 3);
  t.end(15);
  t.end(30);
  t.begin(Layer::Steady, 40);
  t.relabel(Layer::Recompile);  // classified once the body has run
  t.end(45);
  t.end(100);
  t.begin(Layer::Check, 100);
  t.end(110);
  CHECK(t.depth() == 0);

  const auto totals = t.reduce();
  CHECK(near(at(totals, Layer::RunUntil).self_s, 75e-9));  // 100 - 20 - 5
  CHECK(near(at(totals, Layer::Steady).self_s, 17e-9));    // 20 - 3
  CHECK(near(at(totals, Layer::Fanout).self_s, 3e-9));
  CHECK(near(at(totals, Layer::Recompile).self_s, 5e-9));
  CHECK(near(at(totals, Layer::Check).self_s, 10e-9));
  CHECK(at(totals, Layer::Steady).spans == 1);
  CHECK(at(totals, Layer::Recompile).spans == 1);
  // Self times partition the covered time exactly.
  double self_sum = 0;
  for (const auto& l : totals) self_sum += l.self_s;
  CHECK(near(self_sum, t.covered_s()));
  CHECK(near(t.covered_s(), 110e-9));
  CHECK(near(t.covered_s(Layer::Check), 100e-9));
  CHECK(t.spans()[1].parent == 0);
  CHECK(t.spans()[2].parent == 1);
  CHECK(t.spans()[4].parent == -1);
}

void open_spans_are_not_reduced() {
  renbench::Tracer t;
  t.begin(Layer::RunUntil, 0);
  t.begin(Layer::Check, 5);
  t.end(7);
  const auto totals = t.reduce();
  CHECK(at(totals, Layer::RunUntil).spans == 0);
  CHECK(near(at(totals, Layer::Check).self_s, 2e-9));
  CHECK(near(t.covered_s(), 0));
}

void allocations_go_to_the_innermost_span() {
  renbench::Tracer t;
  CHECK(t.alloc_sink() == nullptr);  // counting is off by default
  t.count_allocations(true);
  ++*t.alloc_sink();  // outside every span: charged to no layer
  t.begin(Layer::RunUntil, 0);
  *t.alloc_sink() += 2;
  t.begin(Layer::Steady, 1);
  ++*t.alloc_sink();
  CHECK(renbench::g_alloc_sink == t.alloc_sink());
  t.end(2);
  ++*t.alloc_sink();
  t.end(3);
  t.count_allocations(false);
  CHECK(t.alloc_sink() == nullptr);
  CHECK(renbench::g_alloc_sink == nullptr);
  const auto totals = t.reduce();
  CHECK(at(totals, Layer::RunUntil).allocs == 3);
  CHECK(at(totals, Layer::Steady).allocs == 1);
}

void shares_with_zero_denominators_are_omitted() {
  CHECK(!renbench::share(0, 0).has_value());
  CHECK(!renbench::share(5, 0).has_value());
  CHECK(renbench::share(0, 4) == 0.0);
  CHECK(renbench::share(1, 4) == 0.25);
  renbench::Report r;
  r.add_share("hit_share", 3, 0);
  r.add_share("clone_share", 1, 2);
  CHECK(!r.value("hit_share").has_value());
  CHECK(r.value("clone_share") == 0.5);
  CHECK(r.finite());
  CHECK(r.json(true, 1, 0).find("hit_share") == std::string::npos);
}

void non_finite_values_are_rejected() {
  renbench::Report r;
  r.add("ok_s", 1.5, "s");
  r.add("nan_s", std::numeric_limits<double>::quiet_NaN(), "s");
  r.add("inf_per_s", std::numeric_limits<double>::infinity(), "1/s");
  CHECK(!r.finite());
  CHECK(r.rejected().size() == 2);
  CHECK(!r.value("nan_s").has_value());
  const std::string json = r.json(true, 3, 0);
  CHECK(json.rfind("{\"correct\": false,", 0) == 0);
  CHECK(json.find("nan") == std::string::npos);
  CHECK(json.find("inf") == std::string::npos);
  CHECK(json.find("\"ok_s\": {\"value\": 1.5, \"unit\": \"s\"}") !=
        std::string::npos);
}

void values_keep_all_their_digits() {
  renbench::Report r;
  r.add("x_s", 0.1, "s");
  CHECK(r.json(true, 1, 0) ==
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{\"x_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
}

void integers_parse_over_the_whole_string() {
  CHECK(renbench::parse_uint("0") == 0u);
  CHECK(renbench::parse_uint("42") == 42u);
  CHECK(renbench::parse_uint("18446744073709551615") ==
        std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "x1", "0x10",
                          "1.5", "18446744073709551616"}) {
    if (renbench::parse_uint(bad).has_value()) {
      std::fprintf(stderr, "FAIL: parse_uint accepted \"%s\"\n", bad);
      ++g_failures;
    }
  }
}

}  // namespace

int main() {
  nested_self_time();
  open_spans_are_not_reduced();
  allocations_go_to_the_innermost_span();
  shares_with_zero_denominators_are_omitted();
  non_finite_values_are_rejected();
  values_keep_all_their_digits();
  integers_parse_over_the_whole_string();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("renbench_tests: all checks passed\n");
  return 0;
}
