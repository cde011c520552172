// Ablation A2 (paper Section 6.2): the two-tag base algorithm vs the
// three-tag evaluation variant. The extra retained round keeps the
// previous kappa-fault-resilient flows installed while new ones roll out,
// which shows up as a shallower throughput valley around reconfigurations.
// Both variants run the built-in `throughput_window` timeline (30 s window,
// mid-path link failure at its 10th second) on B4 with the paper's timers.
#include "bench_common.hpp"

int main() {
  using namespace ren;
  bench::print_header("Ablation — rule retention: 2 tags vs 3 tags",
                      "throughput valley depth around the failover");
  std::printf("%-10s %10s %12s %12s %12s\n", "variant", "steady", "valley",
              "recovered", "retx-max%");
  const scenario::Scenario s = scenario::builtin("throughput_window");
  for (int retention : {2, 3}) {
    auto cfg = bench::paper_config("B4", 3, 1);
    cfg.rule_retention = retention;
    cfg.link_latency = 16'000 / (2 * (5 + 2));  // ~16 ms host-to-host RTT
    const auto out = scenario::run_timeline(s, cfg);
    if (out.windows.empty() || out.windows[0].mbits_series.size() < 30) {
      std::printf("%-10d (did not converge)\n", retention);
      continue;
    }
    const auto& mbits = out.windows[0].mbits_series;
    const double steady = (mbits[6] + mbits[7] + mbits[8]) / 3;
    double valley = steady;
    for (int i = 9; i < 15; ++i)
      valley = std::min(valley, mbits[static_cast<std::size_t>(i)]);
    const double recovered = (mbits[26] + mbits[27] + mbits[28]) / 3;
    double retx = 0;
    for (double v : out.windows[0].retx_pct) retx = std::max(retx, v);
    std::printf("%-10d %10.0f %12.0f %12.0f %12.1f\n", retention, steady,
                valley, recovered, retx);
  }
  return 0;
}
