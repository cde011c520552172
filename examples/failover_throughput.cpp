// Failover demo: a TCP flow crosses the network while a mid-path link
// dies. Fast-failover rules absorb the hit in the data plane; the control
// plane then re-optimizes the path (the paper's Fig. 15 experiment), written
// as a scenario timeline: bootstrap, open a 30 s traffic window, fail a link
// on the data path at its 10th second, close the window.
//
//   $ ./examples/failover_throughput
#include <cstdio>

#include "renaissance.hpp"

int main() {
  using namespace ren;

  sim::ExperimentConfig cfg;
  cfg.topology = "B4";
  cfg.controllers = 3;
  cfg.kappa = 2;
  cfg.seed = 5;
  cfg.link_latency = usec(1100);  // ~16ms RTT across the diameter

  // The host pair at maximum distance comes with the traffic events.
  constexpr Time kStart = sec(60), kFailAt = sec(10), kDuration = sec(30);
  scenario::Scenario s;
  s.expect_converged(0, "bootstrap", sec(300));
  s.start_traffic(kStart, "window");
  s.fail_path_link(kStart + kFailAt);
  s.stop_traffic(kStart + kDuration);

  std::printf("running a 30s TCP flow, failing a mid-path link at t=10s...\n");
  const auto out = scenario::run_timeline(s, cfg);
  if (out.checkpoints.empty() || !out.checkpoints[0].converged ||
      out.checkpoints[0].seconds >= to_seconds(kStart) ||
      out.windows.empty()) {
    std::printf("experiment failed to converge\n");
    return 1;
  }
  const auto& w = out.windows[0];

  std::printf("\n%6s %12s %8s %8s\n", "sec", "Mbit/s", "retx%", "ooo%");
  for (std::size_t i = 0; i < w.mbits_series.size(); ++i) {
    const bool failure_second = static_cast<Time>(i) == kFailAt / sec(1);
    std::printf("%6zu %12.0f %8.1f %8.1f%s\n", i, w.mbits_series[i],
                w.retx_pct[i], w.ooo_pct[i],
                failure_second ? "   <-- link fails" : "");
  }

  const auto& m = w.mbits_series;
  const double steady = (m[5] + m[6] + m[7]) / 3;
  const double after = (m[25] + m[26] + m[27]) / 3;
  std::printf("\nsteady %.0f Mbit/s -> post-failover %.0f Mbit/s "
              "(longer path, re-optimized by the controllers)\n",
              steady, after);
  return 0;
}
