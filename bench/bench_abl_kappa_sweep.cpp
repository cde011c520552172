// Ablation A4: the resilience/rule-count trade-off of kappa. More backup
// paths cost proportionally more rules and slightly longer bootstraps, and
// buy data-plane survival of more simultaneous link failures.
#include "bench_common.hpp"

namespace {

using namespace ren;

/// Fraction of (controller, switch) pairs still connected by the frozen
/// rules when a random link fails (averaged over every single failure).
double single_failure_survival(sim::Experiment& exp) {
  auto& c = exp.controller(0);
  c.set_frozen(true);
  int total = 0, ok = 0;
  auto& net = exp.sim().network();
  const switchd::RuleForwarding forwarding(net, exp.switches());
  for (std::size_t li = 0; li < net.link_count(); ++li) {
    auto& link = net.link(static_cast<int>(li));
    link.set_state(net::LinkState::TransientDown);
    for (auto* s : exp.switches()) {
      std::vector<NodeId> first;
      if (net.link_operational(c.id(), s->id())) {
        first = {s->id()};
      } else if (const auto f = c.current_flows()) {
        auto it = f->first_hops.find(s->id());
        if (it != f->first_hops.end()) first = it->second;
      }
      ++total;
      ok += forwarding.walk(c.id(), s->id(), first, 128).delivered ? 1 : 0;
    }
    link.set_state(net::LinkState::Up);
  }
  c.set_frozen(false);
  return total == 0 ? 0.0 : static_cast<double>(ok) / total;
}

}  // namespace

int main() {
  using namespace ren;
  bench::print_header("Ablation — kappa sweep (resilience vs rule count)",
                      "B4, one controller, kappa in {0,1,2,3}");
  std::printf("%-6s %14s %12s %22s\n", "kappa", "rules/sw(avg)", "boot(s)",
              "1-failure survival(%)");
  for (int kappa : {0, 1, 2, 3}) {
    auto cfg = bench::paper_config("B4", 1, 1);
    cfg.kappa = kappa;
    sim::Experiment exp(cfg);
    const auto res = exp.run_until_legitimate(sec(120));
    if (!res.converged) {
      std::printf("%-6d (did not converge)\n", kappa);
      continue;
    }
    double rules = 0;
    for (auto* s : exp.switches()) {
      rules += static_cast<double>(s->rule_table().total_rules());
    }
    const double survival = single_failure_survival(exp);
    std::printf("%-6d %14.1f %12.2f %22.1f\n", kappa,
                rules / static_cast<double>(exp.switches().size()),
                res.seconds, 100.0 * survival);
  }
  return 0;
}
