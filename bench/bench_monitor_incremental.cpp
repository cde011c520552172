// Legitimacy-monitor cost: steady-state incremental sample vs a fresh full
// evaluation of Definition 1, on the large Rocketfuel networks where the
// seed's O(network)-per-sample monitor dominated trial wall time.
//
//   bench_monitor_incremental [calls_per_mode>0]   (default 200)
//
// For each topology: bootstrap once, let the system settle, then time (a)
// incremental check() samples in the converged steady state (these
// short-circuit on the unchanged stack epoch) and (b) check_full() samples
// (truth rebuild + view compares + manager/rule validation + rule walks
// from scratch). Prints both costs and the speedup; the acceptance bar is
// >= 10x on ATT and EBONE.
#include <chrono>
#include <cmath>

#include "bench_common.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_per_call_us(const std::function<void()>& fn, int calls) {
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) fn();
  const auto dt = std::chrono::duration<double, std::micro>(Clock::now() - t0);
  return dt.count() / calls;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ren;
  const int calls = bench::trials_from_argv(argc, argv, /*def=*/200);

  bench::print_header(
      "Monitor cost — incremental vs full",
      "steady-state legitimacy sample; acceptance: >=10x on ATT/EBONE");
  std::printf("%-10s %14s %14s %10s\n", "Network", "incr (us)", "full (us)",
              "speedup");

  bool all_pass = true;
  for (const std::string topology : {"ATT", "EBONE"}) {
    // Fast timer profile: the monitor cost under test is per-sample and
    // timer-rate independent, while paper timers would spend minutes of
    // wall clock just simulating the bootstrap on these networks.
    sim::ExperimentConfig cfg;
    cfg.topology = topology;
    cfg.controllers = 3;
    cfg.kappa = 2;
    cfg.seed = bench::kBaseSeed;
    cfg.task_delay = msec(50);
    cfg.detect_interval = msec(10);
    cfg.monitor_interval = msec(25);
    cfg.link_latency = usec(100);
    cfg.theta = 10;
    cfg.rule_retention = 3;
    sim::Experiment exp(cfg);
    const auto boot = exp.run_until_legitimate(sec(600));
    if (!boot.converged) {
      std::printf("%-10s bootstrap failed: %s\n", topology.c_str(),
                  boot.last_reason.c_str());
      all_pass = false;
      continue;
    }
    // Settle: drain in-flight chatter until the stack epoch stops moving.
    std::uint64_t epoch = exp.monitor().stack_epoch();
    for (int i = 0; i < 50; ++i) {
      exp.sim().run_until(exp.sim().now() + exp.config().task_delay);
      const std::uint64_t e = exp.monitor().stack_epoch();
      if (e == epoch && exp.monitor().check().legitimate) break;
      epoch = e;
    }

    // Warm both paths once so neither pays first-call allocation noise.
    (void)exp.monitor().check();
    (void)exp.monitor().check_full();

    const double incr_us = time_per_call_us(
        [&] {
          if (!exp.monitor().check().legitimate) std::abort();
        },
        calls);
    const double full_us = time_per_call_us(
        [&] {
          if (!exp.monitor().check_full().legitimate) std::abort();
        },
        calls);
    const double speedup = full_us / incr_us;
    std::printf("%-10s %14.2f %14.2f %9.1fx\n", topology.c_str(), incr_us,
                full_us, speedup);
    // A non-finite speedup (a zero or NaN timing) is a failed measurement.
    if (!(std::isfinite(speedup) && speedup >= 10.0)) all_pass = false;
  }
  std::printf("%s\n", all_pass ? "PASS (>=10x on all networks)"
                               : "FAIL (<10x somewhere, see above)");
  return all_pass ? 0 : 1;
}
