// Million-flow data plane: heavy-tailed flow churn against capacity-limited
// rule tables.
//
//   bench_flow_churn [--quick] [--json FILE]
//
// Full mode boots fat_tree:k=16 (320 switches), then runs a 15-second
// Pareto/Zipf churn window at 80,000 flows/s against 1,500-entry tables —
// >= 1.2 million cumulative arrivals. Gates:
//   - volume: cumulative arrivals >= 1,000,000 (full mode only);
//   - pressure: the capacity limit actually bit (evictions + overflow
//     rejections > 0) and the table report is present.
// --quick (CI) runs fat_tree:k=8 at 5,000 flows/s for 5 seconds, pressure
// gate only. Writes BENCH_flow_churn.json.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace ren;
using Clock = std::chrono::steady_clock;

constexpr double kArrivalsFloor = 1'000'000;  ///< full-mode volume gate

struct ChurnParams {
  std::string fabric;
  double rate = 0;          ///< flow arrivals per second
  Time mean_duration = 0;   ///< heavy-tailed lifetime mean
  int window_s = 0;         ///< churn window length (seconds)
  double table_capacity = 0;
};

scenario::Scenario churn_scenario(const ChurnParams& p) {
  scenario::Scenario s;
  s.name = "bench_flow_churn";
  s.description = "heavy-tailed churn window against capacity-limited tables";
  s.topologies = {p.fabric};
  s.controllers = {3};
  s.trials = 1;
  s.base_seed = bench::kBaseSeed;
  s.expect_converged(sec(0), "bootstrap", sec(600));
  s.start_flow_churn(sec(1), p.rate, p.mean_duration);
  s.stop_flow_churn(sec(1 + p.window_s));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonBenchArgs args = bench::json_bench_args(
      argc, argv, "BENCH_flow_churn.json", /*takes_trials=*/false);
  const bool quick = args.quick;

  ChurnParams p;
  // Capacity sits just above the fabric's management-rule requirement (the
  // hottest switch holds ~636 protected rules on k=8, ~1234 on k=16 —
  // protected entries are unevictable, so a cap below that would thrash
  // bootstrap instead of pressuring flows).
  if (quick) {
    p.fabric = "fat_tree:k=8";
    p.rate = 5'000;
    p.mean_duration = msec(100);
    p.window_s = 5;
    p.table_capacity = 700;
  } else {
    p.fabric = "fat_tree:k=16";
    p.rate = 80'000;
    p.mean_duration = msec(150);
    p.window_s = 15;
    p.table_capacity = 1'500;
  }

  bench::print_header(
      "Flow churn at scale — heavy-tailed workload vs capacity-limited "
      "tables",
      "data-plane pressure no paper figure covers (Section 6 fabrics)");
  std::printf("fabric=%s rate=%.0f/s window=%ds capacity=%.0f\n",
              p.fabric.c_str(), p.rate, p.window_s, p.table_capacity);

  const scenario::Scenario s = churn_scenario(p);
  const scenario::AxisPoint axes = {{"table_capacity", p.table_capacity}};

  scenario::RunnerOptions opt;
  opt.threads = 1;
  const auto t0 = Clock::now();
  const scenario::TrialOutcome out =
      scenario::run_trial(s, p.fabric, 3, axes, /*trial=*/0, opt);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const bool ok = out.ok && out.has_table;
  if (!out.ok) std::printf("trial FAILED: %s\n", out.error.c_str());
  const bool volume_ok = quick || out.tbl_arrivals >= kArrivalsFloor;
  const bool pressure_ok = ok && out.tbl_evictions + out.tbl_overflows > 0 &&
                           out.tbl_peak_rules <= p.table_capacity;
  const bool all_pass = volume_ok && pressure_ok;

  std::printf("%8s %12s %12s %10s %10s %18s\n", "wall(s)", "arrivals",
              "evictions", "overflows", "peak", "counters fp");
  std::printf("%8.1f %12.0f %12.0f %10.0f %10.0f %#18llx\n", wall_s,
              out.tbl_arrivals, out.tbl_evictions, out.tbl_overflows,
              out.tbl_peak_rules,
              static_cast<unsigned long long>(out.counters_fp));
  std::printf("volume:   %.0f arrivals (gate %s)\n", out.tbl_arrivals,
              quick ? "disarmed in --quick"
                    : (volume_ok ? ">= 1M, ok" : "FAILED (< 1M)"));
  std::printf("pressure: %.0f evictions + %.0f overflow rejections at "
              "peak %.0f/%.0f rules (%s)\n",
              out.tbl_evictions, out.tbl_overflows, out.tbl_peak_rules,
              p.table_capacity, pressure_ok ? "ok" : "FAILED");

  scenario::Json doc;
  doc.set("bench", "flow_churn");
  doc.set("mode", quick ? "quick" : "full");
  doc.set("fabric", p.fabric);
  doc.set("rate_per_s", p.rate);
  doc.set("window_s", p.window_s);
  doc.set("table_capacity", p.table_capacity);
  doc.set("ok", ok);
  doc.set("wall_s", wall_s);
  doc.set("arrivals", out.tbl_arrivals);
  doc.set("evictions", out.tbl_evictions);
  doc.set("overflows", out.tbl_overflows);
  doc.set("peak_rules", out.tbl_peak_rules);
  doc.set("lookup_cost", out.tbl_lookup_cost);
  doc.set("counters_fp_hex", [&] {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(out.counters_fp));
    return std::string(buf);
  }());
  doc.set("volume_ok", volume_ok);
  doc.set("pressure_ok", pressure_ok);
  doc.set("pass", all_pass);
  bench::write_json(doc, args.json_path);

  std::printf("%s\n", all_pass ? "PASS" : "FAIL (see gates above)");
  return all_pass ? 0 : 1;
}
