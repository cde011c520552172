// Byzantine-adversary campaign: convergence, availability and blast-radius
// aggregates under the adversarial fault family (faults/adversary.hpp), plus
// the determinism gate the family must honor.
//
//   bench_byzantine [--quick] [--json FILE] [--trials N]
//
// For each fabric (ATT, fat_tree:k=8) and each adversary mode (lying,
// corrupting) the bench runs the same campaign — bootstrap, adversary window
// at t=5..20s, cure, re-stabilization checkpoint — on one trial-pool thread
// and on the default pool size, and gates on the two reports being
// byte-identical (the adversary draws from per-node RNG streams, so the
// campaign cannot depend on which thread ran which trial). Reported per
// cell: re-stabilization convergence time, time below legitimacy
// (availability), illegitimate episodes, blast radius, how many trials
// re-stabilized after the cure, and the one-thread campaign's wall time
// (`wall_s`; the report's top-level `wall_s` is their sum).
//
// --quick (CI) runs ATT x lying with one trial. Writes BENCH_byzantine.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace ren;

scenario::Scenario byzantine_scenario(const std::string& topology,
                                      const std::string& mode, int trials) {
  scenario::Scenario s;
  s.name = "byzantine_" + mode;
  s.description = "adversary window t=5..20s, mode " + mode;
  s.topologies = {topology};
  s.controllers = {3};
  s.trials = trials;
  s.expect_converged(sec(0), "bootstrap", sec(120));
  s.start_adversary(sec(5), mode);
  s.stop_adversary(sec(20));
  s.expect_converged(sec(20), "restabilize", sec(120));
  return s;
}

struct CellReport {
  std::string topology;
  std::string mode;
  bool identical = false;     ///< reports byte-identical across pool sizes
  int trials = 0;
  int restabilized = 0;       ///< trials legitimate again after the cure
  double restab_p50_s = 0;    ///< median re-stabilization time
  double below_p50_s = 0;     ///< median time below legitimacy
  double episodes_p50 = 0;    ///< median illegitimate episodes
  double blast_p50 = 0;       ///< median blast radius (fraction of switches)
  double wall_s = 0;          ///< wall seconds of the one-thread campaign
};

CellReport run_cell(const std::string& topology, const std::string& mode,
                    int trials) {
  CellReport rep;
  rep.topology = topology;
  rep.mode = mode;
  const scenario::Scenario s = byzantine_scenario(topology, mode, trials);
  scenario::RunnerOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 0;  // hardware concurrency
  const auto t0 = std::chrono::steady_clock::now();
  const scenario::CampaignResult first = scenario::run_campaign(s, serial);
  rep.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  rep.identical = first.to_json().pretty() ==
                  scenario::run_campaign(s, pooled).to_json().pretty();
  if (!first.cells.empty()) {
    const auto& c = first.cells.front();
    rep.trials = c.trials;
    rep.restabilized = c.metric("restabilized").count;
    rep.below_p50_s = c.metric("below_s").summary.p50;
    rep.episodes_p50 = c.metric("episodes").summary.p50;
    rep.blast_p50 = c.metric("blast_radius").summary.p50;
    for (const auto& cp : c.checkpoints) {
      if (cp.label == "restabilize") rep.restab_p50_s = cp.seconds.p50;
    }
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonBenchArgs args = bench::json_bench_args(
      argc, argv, "BENCH_byzantine.json", /*takes_trials=*/true);
  const bool quick = args.quick;
  int trials = args.trials;
  if (trials == 0) trials = quick ? 1 : 4;

  const std::vector<std::string> fabrics =
      quick ? std::vector<std::string>{"ATT"}
            : std::vector<std::string>{"ATT", "fat_tree:k=8"};
  const std::vector<std::string> modes =
      quick ? std::vector<std::string>{"lying"}
            : std::vector<std::string>{"lying", "corrupting"};

  bench::print_header(
      "Byzantine adversary campaign — damage, recovery, determinism",
      "Section 7 discussion: behavior outside the benign fault model");

  bool all_pass = true;
  double wall_s = 0;
  scenario::Json jcells{scenario::JsonArray{}};
  std::printf("%-14s %-12s %8s %12s %10s %9s %7s %12s %9s\n", "fabric",
              "mode", "trials", "restab (s)", "below (s)", "episodes",
              "blast", "restabilized", "wall (s)");
  for (const auto& fabric : fabrics) {
    for (const auto& mode : modes) {
      const CellReport rep = run_cell(fabric, mode, trials);
      if (!rep.identical || rep.restabilized != rep.trials) all_pass = false;
      wall_s += rep.wall_s;
      std::printf("%-14s %-12s %8d %12.2f %10.2f %9.1f %7.2f %9d/%d %9.2f "
                  "%s\n",
                  rep.topology.c_str(), rep.mode.c_str(), rep.trials,
                  rep.restab_p50_s, rep.below_p50_s, rep.episodes_p50,
                  rep.blast_p50, rep.restabilized, rep.trials, rep.wall_s,
                  rep.identical ? "" : "DIVERGED across --threads");
      scenario::Json jc;
      jc.set("topology", rep.topology);
      jc.set("mode", rep.mode);
      jc.set("trials", rep.trials);
      jc.set("identical_across_threads", rep.identical);
      jc.set("restabilize_p50_s", rep.restab_p50_s);
      jc.set("below_legitimacy_p50_s", rep.below_p50_s);
      jc.set("episodes_p50", rep.episodes_p50);
      jc.set("blast_radius_p50", rep.blast_p50);
      jc.set("restabilized", rep.restabilized);
      jc.set("wall_s", rep.wall_s);
      jcells.push_back(std::move(jc));
    }
  }

  scenario::Json doc;
  doc.set("bench", "byzantine");
  doc.set("mode", quick ? "quick" : "full");
  doc.set("trials", trials);
  doc.set("pass", all_pass);
  doc.set("wall_s", wall_s);
  doc.set("cells", std::move(jcells));
  bench::write_json(doc, args.json_path);

  std::printf("%s\n",
              all_pass ? "PASS (byte-identical reports at 1 and all trial "
                         "threads; every trial re-stabilized after the cure)"
                       : "FAIL (see rows above)");
  return all_pass ? 0 : 1;
}
