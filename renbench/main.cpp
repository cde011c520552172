// The repository benchmark executables (renbench, renbench_traced).
//
//   renbench        --workload NAME --seed N --seconds N
//   renbench_traced --workload NAME --seed N --seconds N [--trace-out FILE]
//
// Workloads: boot_wan1024, churn_k16, restart_ebone (replay.cpp). Each run
// is closed-loop: one process, one trial at a time, serial kernel. Which
// run an executable makes follows from whether it links the operator-new
// hook (renbench::alloc_hook_linked).
//
// renbench sets the workload up several times (setup_s, the median), then
// runs trials 0, 1, ... through scenario::run_trial until --seconds would be
// exceeded (at least one), and reports wall_s (median per trial),
// sim_converge_s (trial 0's summed checkpoint seconds: deterministic per
// seed, however many trials the time allowed) and peak_rss_mb.
//
// renbench_traced runs trial 0 untraced, replays it traced, then runs it
// untraced once more; the replay must reproduce the untraced Counters
// fingerprint and checkpoint seconds (the fidelity gate). It reports
// per-layer self times, counts, allocations and shares, plus the tracing
// overhead against the mean of the two untraced runs.
//
// Every trial's output is checked (replay.cpp: check_outcome); a failed
// check counts in "failed". Human-readable detail goes to stderr; the last
// line of stdout is the JSON result.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>

#include "replay.hpp"
#include "trace.hpp"

namespace {

using namespace ren;
using renbench::Layer;
using Clock = std::chrono::steady_clock;

/// Set-up samples taken before the first trial and after each trial
/// (setup_s is their median), each the mean over constructions for the
/// configs of trials 0..kSetupBatch-1.
constexpr int kSetupSamples = 3;
constexpr int kSetupBatch = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::string trace_out;
};

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds N%s\n",
               argv0, why.c_str(), argv0,
               renbench::alloc_hook_linked() ? " [--trace-out FILE]" : "");
  return 2;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

scenario::TrialOutcome run_one(const renbench::Workload& w, int trial) {
  scenario::RunnerOptions opt;
  opt.threads = 1;
  opt.sim_threads = 1;
  try {
    return scenario::run_trial(w.scenario, w.topology, w.controllers, w.axes,
                               trial, opt);
  } catch (const std::exception& e) {
    scenario::TrialOutcome out;
    out.error = e.what();
    return out;
  }
}

int untraced(const renbench::Workload& w, const Args& a) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // The fabric is one fixed topology spec in every trial, so one untimed
  // construction checks it for all of them (no fault precedes the bootstrap
  // checkpoint). It also pays for generating the memoized topology.
  const int achievable = sim::Experiment(renbench::trial_config(w, 0))
                             .monitor()
                             .achievable_kappa();

  // Set-up: Experiment construction (topology resolve + fabric, controllers
  // and monitor), timed apart from the trials. One construction takes well
  // under a millisecond and its cost depends on the trial seed, so a sample
  // is the mean over a batch of trial configs. The host's speed drifts by up
  // to 1.6x over a few seconds, so samples are taken before the first trial
  // and after every trial, and setup_s is their median. Each construction
  // starts from a trimmed heap, as in a fresh process: whether freed memory
  // went back to the system otherwise depends on heap layout and moves the
  // time by 2x between runs.
  Sample setup;
  auto sample_setup = [&] {
    for (int k = 0; k < kSetupSamples; ++k) {
      double batch_s = 0;
      for (int j = 0; j < kSetupBatch; ++j) {
        malloc_trim(0);
        const auto t0 = Clock::now();
        const sim::Experiment exp(renbench::trial_config(w, j));
        batch_s += seconds_since(t0);
      }
      setup.add(batch_s / kSetupBatch);
    }
  };

  Sample wall;
  double converge = 0;
  const auto start = Clock::now();
  sample_setup();
  for (int trial = 0;; ++trial) {
    const auto t0 = Clock::now();
    const scenario::TrialOutcome out = run_one(w, trial);
    const double s = seconds_since(t0);
    ++attempted;
    std::string err = renbench::check_outcome(w, out);
    if (err.empty() && achievable < w.fabric_kappa) {
      err = "fabric supports kappa " + std::to_string(achievable);
    }
    if (!err.empty()) ++failed;
    wall.add(s);
    if (trial == 0) converge = renbench::converge_seconds(out);
    std::fprintf(stderr, "%s trial %d: wall %.3f s, converge %.3f s%s%s\n",
                 w.name.c_str(), trial, s, renbench::converge_seconds(out),
                 err.empty() ? "" : ", FAILED: ", err.c_str());
    sample_setup();
    if (seconds_since(start) + wall.median() >
        static_cast<double>(a.seconds)) {
      break;
    }
  }

  renbench::Report rep;
  rep.add("wall_s", wall.median(), "s");
  rep.add("setup_s", setup.median(), "s");
  rep.add("sim_converge_s", converge, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr, "%s seed %llu: %llu trials, %llu failed\n%s",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), rep.table().c_str());
  std::printf("%s\n", rep.json(failed == 0, attempted, failed).c_str());
  return 0;
}

/// Empty when the replay reproduced the reference trial exactly.
std::string fidelity(const scenario::TrialOutcome& ref,
                     const scenario::TrialOutcome& got) {
  if (got.counters_fp != ref.counters_fp) return "counters fingerprint differs";
  if (got.checkpoints.size() != ref.checkpoints.size()) {
    return "checkpoint count differs";
  }
  for (std::size_t i = 0; i < ref.checkpoints.size(); ++i) {
    const auto& r = ref.checkpoints[i];
    const auto& g = got.checkpoints[i];
    if (r.label != g.label || r.converged != g.converged ||
        r.seconds != g.seconds) {
      return "checkpoint " + r.label + " differs";
    }
  }
  return "";
}

void add_layer_metrics(renbench::Report& rep,
                       const std::array<renbench::LayerTotals,
                                        renbench::kLayerCount>& layers,
                       const renbench::ReplayResult& r) {
  auto at = [&](Layer l) -> const renbench::LayerTotals& {
    return layers[static_cast<std::size_t>(l)];
  };
  auto count = [&](const char* name, std::uint64_t v) {
    rep.add(name, static_cast<double>(v), "count");
  };
  rep.add("flows.my_rules.recompile_s", at(Layer::Recompile).self_s, "s");
  count("flows.my_rules.recompiles", r.recompiles);
  rep.add("flows.my_rules.compile_replay_s", at(Layer::CompileReplay).self_s,
          "s");
  rep.add("core.legitimacy.check_s", at(Layer::Check).self_s, "s");
  count("core.legitimacy.checks", r.monitor.checks);
  rep.add_share("core.legitimacy.short_circuit_share",
                r.monitor.short_circuits, r.monitor.checks);
  count("core.legitimacy.reference_compiles", r.monitor.reference_compiles);
  count("core.legitimacy.allocs", at(Layer::Check).allocs);
  rep.add("core.controller.steady_s", at(Layer::Steady).self_s, "s");
  count("core.controller.iterations", r.steady);
  count("core.controller.allocs", at(Layer::Steady).allocs);
  rep.add("core.batch_planner.fanout_s", at(Layer::Fanout).self_s, "s");
  count("core.batch_planner.fanout_allocs", at(Layer::Fanout).allocs);
  count("core.batch_planner.rotated", r.planner.rotated);
  count("core.batch_planner.cloned", r.planner.cloned);
  rep.add_share("core.batch_planner.clone_share", r.planner.cloned,
                r.planner.rotated + r.planner.cloned);
  rep.add_share("core.batch_planner.gate_share", r.planner.gate_rotations,
                r.planner.gate_rotations + r.planner.full_plans);
  rep.add_share("core.view_cache.hit_share", r.views.hits, r.views.refreshes);
  count("core.view_cache.rebuilds", r.views.rebuilds);
  const double net_s = at(Layer::RunUntil).self_s;
  rep.add("net.self_s", net_s, "s");
  count("net.events", r.events);
  rep.add("net.events_per_s", static_cast<double>(r.events) / net_s, "1/s");
  count("net.packets_sent", r.packets_sent);
  count("net.drops", r.drops);
  count("net.allocs", at(Layer::RunUntil).allocs);
  count("transport.retransmissions", r.retransmissions);
  rep.add("switchd.rule_table.install_s", at(Layer::RuleInstall).self_s, "s");
  rep.add("switchd.rule_table.remove_s", at(Layer::RuleRemove).self_s, "s");
  count("switchd.rule_table.evictions", r.evictions);
  count("switchd.rule_table.overflow_rejects", r.overflow_rejects);
  count("switchd.rule_table.lookup_cost", r.lookup_cost);
  rep.add("flows.churn.advance_s", at(Layer::ChurnAdvance).self_s, "s");
  rep.add("flows.churn.path_s", at(Layer::ChurnPath).self_s, "s");
}

int traced(const renbench::Workload& w, const Args& a) {
  std::uint64_t failed = 0;
  // Warm the memoized topology first so that no run pays for generating
  // the fabric.
  topo::validate_spec(w.topology);
  // Trial 0 untraced, timed; its outcome is the fidelity reference.
  auto untraced_trial = [&](const char* when) {
    const auto t0 = Clock::now();
    scenario::TrialOutcome out = run_one(w, 0);
    const double s = seconds_since(t0);
    const std::string err = renbench::check_outcome(w, out);
    if (!err.empty()) {
      std::fprintf(stderr, "untraced trial (%s) FAILED: %s\n", when,
                   err.c_str());
      ++failed;
    }
    return std::pair{std::move(out), s};
  };
  const auto [ref, before_s] = untraced_trial("before the replay");

  renbench::Tracer tracer;
  tracer.count_allocations(true);
  renbench::ReplayResult r;
  try {
    r = renbench::replay_trial(w, 0, tracer);
  } catch (const std::exception& e) {
    r.outcome.ok = false;
    r.outcome.error = e.what();
  }
  tracer.count_allocations(false);
  std::string err = renbench::check_outcome(w, r.outcome);
  if (err.empty()) err = fidelity(ref, r.outcome);
  if (err.empty() && r.achievable_kappa < w.fabric_kappa) {
    err = "fabric supports kappa " + std::to_string(r.achievable_kappa) +
          " after bootstrap";
  }
  if (!err.empty()) {
    std::fprintf(stderr, "traced replay FAILED: %s\n", err.c_str());
    ++failed;
  }

  // Timing the untraced trial on both sides of the replay keeps host drift
  // from reading as tracing overhead (or as a speed-up).
  const auto [after, after_s] = untraced_trial("after the replay");
  if (const std::string e = fidelity(ref, after); !e.empty()) {
    std::fprintf(stderr, "untraced trial not reproducible: %s\n", e.c_str());
    ++failed;
  }
  const double ref_wall = (before_s + after_s) / 2;

  renbench::Report rep;
  add_layer_metrics(rep, tracer.reduce(), r);
  rep.add("trace.overhead_frac", r.wall_s / ref_wall - 1.0, "ratio");
  rep.add("trace.remainder_s",
          r.wall_s - tracer.covered_s(Layer::CompileReplay), "s");
  if (!a.trace_out.empty() && !tracer.write_csv(a.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    ++failed;
  }
  std::fprintf(stderr,
               "%s seed %llu: untraced %.3f s and %.3f s, traced %.3f s, "
               "%zu spans, counters fp %016llx\n%s",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               before_s, after_s, r.wall_s, tracer.spans().size(),
               static_cast<unsigned long long>(ref.counters_fp),
               rep.table().c_str());
  std::printf("%s\n", rep.json(failed == 0, 3, failed).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool tracing = renbench::alloc_hook_linked();
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--trace-out" && tracing) {
      a.trace_out = value;
    } else if (flag == "--seed" || flag == "--seconds") {
      const auto v = renbench::parse_uint(value);
      if (!v) return usage(argv[0], flag + " needs an unsigned integer");
      if (flag == "--seed") {
        a.seed = *v;
        have_seed = true;
      } else {
        if (*v == 0) return usage(argv[0], "--seconds must be > 0");
        a.seconds = *v;
        have_seconds = true;
      }
    } else {
      return usage(argv[0], "unknown option " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    return usage(argv[0], "--workload, --seed and --seconds are required");
  }
  renbench::Workload w;
  try {
    w = renbench::make_workload(a.workload, a.seed);
  } catch (const std::exception& e) {
    return usage(argv[0], e.what());
  }
  return tracing ? traced(w, a) : untraced(w, a);
}
