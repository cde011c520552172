// Multi-controller management: seven equal-role controllers share every
// switch; a majority of them fail simultaneously and the survivors purge
// the stale state (the paper's Fig. 11 scenario).
//
//   $ ./examples/multi_controller
#include <cstdio>

#include "renaissance.hpp"

int main() {
  using namespace ren;

  sim::ExperimentConfig cfg;
  cfg.topology = "Telstra";
  cfg.controllers = 7;
  cfg.kappa = 2;
  cfg.theta = 30;
  cfg.seed = 3;
  sim::Experiment exp(cfg);

  const auto boot = exp.run_until_legitimate(sec(180));
  if (!boot.converged) {
    std::printf("bootstrap failed: %s\n", boot.last_reason.c_str());
    return 1;
  }
  std::printf("7 controllers manage all 57 switches after %.2fs\n",
              boot.seconds);

  auto print_switch_state = [&](const char* when) {
    auto* sw = exp.switches()[0];
    std::printf("%s: switch 0 has %zu managers, rule owners:", when,
                sw->managers().size());
    for (NodeId o : sw->rule_table().owners()) std::printf(" %d", o);
    std::printf("\n");
  };
  print_switch_state("before");
  auto illegitimate_deletions = [&exp] {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < exp.controller_count(); ++k) {
      n += exp.controller(k).stats().illegitimate_deletions;
    }
    return n;
  };
  const std::uint64_t before_kill = illegitimate_deletions();

  // Kill four controllers at once.
  auto cp = exp.control_plane();
  const auto victims = faults::kill_random_controllers(cp, exp.fault_rng(), 4);
  std::printf("killed controllers:");
  for (NodeId v : victims) std::printf(" %d", v);
  std::printf("\n");

  const auto rec = exp.run_until_legitimate(sec(120));
  std::printf("recovered in %.2fs — stale managers and rules purged\n",
              rec.seconds);
  print_switch_state("after");

  // Deletions that targeted a controller alive at that instant (the
  // quantity Theorem 1 bounds); stale state of the dead ones does not count.
  std::printf("illegitimate deletions during recovery: %llu\n",
              static_cast<unsigned long long>(illegitimate_deletions() -
                                              before_kill));
  return rec.converged ? 0 : 1;
}
