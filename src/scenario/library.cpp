#include "scenario/library.hpp"

#include <iterator>
#include <stdexcept>

namespace ren::scenario {

namespace {

/// Controllers crash and come back one at a time; the control plane must
/// re-converge after every transition (MORPH-style failure sequences).
Scenario rolling_restart() {
  Scenario s;
  s.name = "rolling_restart";
  s.description =
      "sequential controller crash+revive rounds; convergence after each";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  for (int round = 0; round < 3; ++round) {
    const Time base = sec(5 + 25 * round);
    s.kill_controller(base);
    s.expect_converged(base, "degraded_" + std::to_string(round), sec(120));
    s.restart_nodes(base + sec(12));
    s.expect_converged(base + sec(12), "restored_" + std::to_string(round),
                       sec(120));
  }
  return s;
}

/// Links repeatedly fail and recover before the system fully settles —
/// the flapping stresses stale-view cleanup rather than steady-state loss.
Scenario flapping_links() {
  Scenario s;
  s.name = "flapping_links";
  s.description = "repeated fail+restore link flaps, then settle";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  for (int flap = 0; flap < 4; ++flap) {
    const Time base = sec(5 + 4 * flap);
    s.fail_links(base, 2);
    s.restore_links(base + sec(2));
  }
  s.expect_converged(sec(22), "settle", sec(120));
  return s;
}

/// Switches die in growing waves; each wave removes more of the fabric and
/// the survivors must keep every remaining switch managed.
Scenario cascading_switch_failures() {
  Scenario s;
  s.name = "cascading_switch_failures";
  s.description = "three growing waves of permanent switch fail-stops";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.kill_switches(sec(5), 1);
  s.expect_converged(sec(5), "wave_1", sec(120));
  s.kill_switches(sec(30), 2);
  s.expect_converged(sec(30), "wave_2", sec(120));
  s.kill_switches(sec(60), 3);
  s.expect_converged(sec(60), "wave_3", sec(120));
  return s;
}

/// A transient-fault storm lands while the topology is also churning — the
/// combination the self-stabilization proof covers but no seed bench runs.
Scenario corruption_under_churn() {
  Scenario s;
  s.name = "corruption_under_churn";
  s.description = "corrupt all state concurrently with link/controller churn";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.fail_links(sec(5), 1);
  s.corrupt_all(sec(5));
  s.expect_converged(sec(5), "storm_1", sec(180));
  s.kill_controller(sec(40));
  s.corrupt_all(sec(40));
  s.expect_converged(sec(40), "storm_2", sec(180));
  return s;
}

/// Random link cuts with the connectivity guard off: the control plane may
/// genuinely partition (violating the paper's fault assumptions), then the
/// links heal and recovery is measured from the healed instant.
Scenario partition_and_heal() {
  Scenario s;
  s.name = "partition_and_heal";
  s.description =
      "unguarded link failures (may partition), heal, measure recovery";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.fail_links(sec(5), 3, /*keep_connected=*/false);
  s.restore_links(sec(15));
  s.expect_converged(sec(15), "heal", sec(180));
  return s;
}

/// A denser storm than flapping_links, written with periodic events: one
/// fail_links and one restore_links entry each repeat six times instead of
/// unrolling twelve timeline entries by hand.
Scenario link_flap_storm() {
  Scenario s;
  s.name = "link_flap_storm";
  s.description =
      "periodic two-link flaps (every(4s) x6 fail/restore pair), then settle";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.fail_links(sec(5), 2).every(sec(4), 6);
  s.restore_links(sec(7)).every(sec(4), 6);
  s.expect_converged(sec(31), "settle", sec(180));
  return s;
}

/// The Section 6.4.3 throughput experiment as a declarative timeline
/// (Figs. 15/16 shape): a bracketed traffic window with a mid-path link
/// failure at its 10th second, on RTT-calibrated links. The campaign
/// report's traffic_windows carry the per-second goodput/retransmission
/// series the figures plot.
Scenario throughput_window() {
  Scenario s;
  s.name = "throughput_window";
  s.description =
      "30s traffic window, mid-path link failure at its 10th second "
      "(fig15 shape; freeze before the failure for fig16)";
  s.calibrate_rtt = true;
  s.trials = 1;  // the paper plots single series per network
  s.expect_converged(sec(0), "bootstrap", sec(300));
  s.start_traffic(sec(150), "window");
  s.fail_path_link(sec(160), msec(150));
  s.stop_traffic(sec(180));
  return s;
}

/// A TCP flow runs across the fabric while a controller dies and a link on
/// or off the path fails; measures both re-convergence and the goodput the
/// flow kept through the failover.
Scenario failover_under_load() {
  Scenario s;
  s.name = "failover_under_load";
  s.description = "controller + link failure under an active TCP flow";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.start_traffic(sec(2));
  s.kill_controller(sec(10));
  s.fail_links(sec(10), 1);
  s.expect_converged(sec(10), "failover", sec(120));
  return s;
}

/// Byzantine controllers (Section 7's adversarial discussion): a subset of
/// controllers starts lying about its ReplyDb and corrupting its outbound
/// frames mid-run, then is cured; the stabilization watchdog records time
/// below legitimacy, episode count, blast radius, and re-stabilization.
Scenario byzantine_controller() {
  Scenario s;
  s.name = "byzantine_controller";
  s.description =
      "one controller turns Byzantine (lying + corrupting), is cured at "
      "t=35s; watchdog measures the damage and the recovery";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.start_adversary(sec(5), "lying");
  s.start_adversary(sec(5), "corrupting");
  s.stop_adversary(sec(35));
  s.expect_converged(sec(35), "restabilize", sec(180));
  return s;
}

/// An in-band channel-fault storm: every link simultaneously corrupts,
/// loses, duplicates and reorders packets for a window, then the fault
/// profile is restored and recovery is measured. Exercises the message-level
/// corruption path (proto/mutate.hpp) end to end.
Scenario channel_corruption_storm() {
  Scenario s;
  s.name = "channel_corruption_storm";
  s.description =
      "30s all-links corruption/loss/duplication storm, then restore the "
      "channel and measure re-stabilization";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.channel_faults(sec(5), /*loss=*/0.05, /*corrupt=*/0.10,
                   /*duplicate=*/0.02, /*reorder=*/0.05);
  s.stop_adversary(sec(35));
  s.expect_converged(sec(35), "recover", sec(180));
  return s;
}

/// Recovery colliding with full rule tables — the scenario no paper figure
/// covers: a heavy-tailed flow workload saturates capacity-limited tables,
/// a controller dies and a link fails mid-storm, and convergence is
/// measured while management installs must displace flow entries. The
/// report's "table" block carries overflow/eviction/lookup-cost aggregates.
Scenario table_overflow_recovery() {
  Scenario s;
  s.name = "table_overflow_recovery";
  s.description =
      "flow churn saturates capacity-limited rule tables (eviction under "
      "pressure), then a controller+link failure must re-converge through "
      "the table pressure";
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.start_flow_churn(sec(5), /*rate=*/2000.0, /*mean_duration=*/msec(500));
  // Above the default grid's worst-case management requirement (Telstra's
  // hottest switch holds ~596 protected rules; protected entries are
  // unevictable, so a lower cap would break bootstrap instead of
  // pressuring flows) but far below the ~1000-flow steady state.
  s.axis("table_capacity", {640});
  s.kill_controller(sec(10));
  s.fail_links(sec(10), 1);
  s.expect_converged(sec(10), "recover_under_pressure", sec(180));
  s.stop_flow_churn(sec(25));
  s.expect_converged(sec(25), "drained", sec(120));
  return s;
}

/// The library, in presentation order: the one place a builtin is listed.
struct Builtin {
  const char* name;
  Scenario (*make)();
};
constexpr Builtin kBuiltins[] = {
    {"rolling_restart", rolling_restart},
    {"flapping_links", flapping_links},
    {"link_flap_storm", link_flap_storm},
    {"cascading_switch_failures", cascading_switch_failures},
    {"corruption_under_churn", corruption_under_churn},
    {"partition_and_heal", partition_and_heal},
    {"failover_under_load", failover_under_load},
    {"throughput_window", throughput_window},
    {"byzantine_controller", byzantine_controller},
    {"channel_corruption_storm", channel_corruption_storm},
    {"table_overflow_recovery", table_overflow_recovery},
};
static_assert(std::size(kBuiltins) == kBuiltinCount,
              "update kBuiltins and kBuiltinCount together");

}  // namespace

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const Builtin& b : kBuiltins) names.emplace_back(b.name);
  return names;
}

Scenario builtin(const std::string& name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return b.make();
  }
  std::string known;
  for (const Builtin& b : kBuiltins) known += std::string(" ") + b.name;
  throw std::invalid_argument("unknown scenario \"" + name +
                              "\"; built-ins:" + known);
}

}  // namespace ren::scenario
