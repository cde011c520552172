// Parallel-kernel speedup and reproducibility: time-to-legitimacy on large
// fabrics with the epoch-lockstep sharded simulator at 1/2/4/8 shards.
//
//   bench_sim_parallel [--quick] [--json FILE] [--trials N]
//
// Two gates per fabric:
//   - identity: the simulated boot time AND the Counters fingerprint must be
//     bit-identical at every shard count (the kernel's reproducibility
//     contract) — always enforced;
//   - speedup: on fat_tree:k=16 the 8-shard median wall time must be
//     >= 2.5x faster than serial. Wall-clock speedup needs real cores, so
//     this gate only arms when hardware_concurrency() >= 8; on smaller
//     machines the bench reports the measurement and warns instead of
//     failing (the determinism gate still applies).
//
// Full mode runs fat_tree:k=16 (320 switches) and a 1,024-node
// preferential-attachment WAN at 1/2/4/8 shards, median of 3 trials.
// --quick (CI) runs fat_tree:k=8 at 1/4 shards, one trial, identity only.
// Writes BENCH_sim_parallel.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace ren;
using Clock = std::chrono::steady_clock;

constexpr double kSpeedupFloor = 2.5;  ///< gate: 8 shards vs serial, k=16

sim::ExperimentConfig scale_config(const std::string& spec, int sim_threads,
                                   std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.topology = spec;
  cfg.controllers = 3;
  cfg.kappa = spec.rfind("random_wan", 0) == 0 ? 1 : 2;  // WAN is 2-edge-conn
  cfg.seed = seed;
  cfg.task_delay = msec(50);
  cfg.detect_interval = msec(10);
  cfg.monitor_interval = msec(25);
  cfg.link_latency = usec(100);
  cfg.theta = 10;
  cfg.rule_retention = 3;
  cfg.sim_threads = sim_threads;
  return cfg;
}

struct ShardRow {
  int shards = 1;
  int effective_shards = 1;     ///< what the plan actually yielded
  bool converged = false;
  double boot_sim_s = 0;        ///< median simulated seconds to legitimacy
  double wall_s = 0;            ///< median wall seconds per trial
  double speedup = 0;           ///< serial median wall / this row's
  std::uint64_t counters_fp = 0;  ///< trial-0 Counters fingerprint
};

struct FabricResult {
  std::string spec;
  std::vector<ShardRow> rows;
  bool identical = false;  ///< boot time + fingerprint equal across rows
  bool speedup_ok = true;  ///< 2.5x gate (k=16 only, when armed)
};

FabricResult run_fabric(const std::string& spec,
                        const std::vector<int>& shard_counts, int trials,
                        bool gate_speedup) {
  FabricResult fr;
  fr.spec = spec;
  for (int shards : shard_counts) {
    ShardRow row;
    row.shards = shards;
    Sample sim_s, wall_s;
    bool ok = true;
    for (int trial = 0; trial < trials && ok; ++trial) {
      sim::Experiment exp(
          scale_config(spec, shards, bench::kBaseSeed + trial));
      row.effective_shards = exp.sim().shard_count();
      const auto t0 = Clock::now();
      const auto boot = exp.run_until_legitimate(sec(600));
      wall_s.add(std::chrono::duration<double>(Clock::now() - t0).count());
      if (!boot.converged) {
        std::printf("%-34s shards=%d trial %d did not converge: %s\n",
                    spec.c_str(), shards, trial, boot.last_reason.c_str());
        ok = false;
        break;
      }
      sim_s.add(boot.seconds);
      if (trial == 0) row.counters_fp = exp.sim().counters().fingerprint();
    }
    row.converged = ok;
    row.boot_sim_s = sim_s.size() > 0 ? sim_s.median() : 0;
    row.wall_s = wall_s.size() > 0 ? wall_s.median() : 0;
    fr.rows.push_back(row);
  }

  // Identity gate: every shard count reproduces the serial run exactly.
  fr.identical = !fr.rows.empty() && fr.rows.front().converged;
  const double serial_wall = fr.rows.empty() ? 0 : fr.rows.front().wall_s;
  for (auto& row : fr.rows) {
    row.speedup = row.wall_s > 0 ? serial_wall / row.wall_s : 0;
    if (!row.converged || row.boot_sim_s != fr.rows.front().boot_sim_s ||
        row.counters_fp != fr.rows.front().counters_fp) {
      fr.identical = false;
    }
  }

  if (gate_speedup) {
    for (const auto& row : fr.rows) {
      if (row.shards == 8 && row.speedup < kSpeedupFloor) {
        fr.speedup_ok = false;
      }
    }
  }
  return fr;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_sim_parallel.json";
  int trials = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = bench::positive_int(argv[++i]);
      if (trials <= 0) {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--json FILE] [--trials N>0]\n",
                     argv[0]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json FILE] [--trials N>0]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trials == 0) trials = quick ? 1 : 3;

  const unsigned cores = std::thread::hardware_concurrency();
  // The 2.5x gate measures parallel speedup; without >= 8 real cores the
  // measurement is of scheduler time-slicing, not the kernel.
  const bool arm_speedup = !quick && cores >= 8;

  const std::vector<std::string> fabrics =
      quick ? std::vector<std::string>{"fat_tree:k=8"}
            : std::vector<std::string>{"fat_tree:k=16",
                                       "random_wan:nodes=1024,m=2,seed=1"};
  const std::vector<int> shard_counts =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  bench::print_header(
      "Parallel simulation kernel — epoch-lockstep shard scaling",
      "bit-reproducible speedup on the Table-8-at-scale fabrics");
  std::printf("cores=%u  speedup gate: %s\n", cores,
              arm_speedup ? "armed (k=16, 8 shards >= 2.5x)"
                          : "disarmed (needs full mode and >= 8 cores); "
                            "identity gate still applies");

  bool all_pass = true;
  scenario::Json jfabrics{scenario::JsonArray{}};
  for (const auto& spec : fabrics) {
    const bool gate = arm_speedup && spec == "fat_tree:k=16";
    const FabricResult fr = run_fabric(spec, shard_counts, trials, gate);
    if (!fr.identical || !fr.speedup_ok) all_pass = false;

    std::printf("%-34s %6s %6s %10s %10s %8s %18s\n", fr.spec.c_str(),
                "shards", "eff", "boot (s)", "wall (s)", "speedup",
                "counters fp");
    for (const auto& row : fr.rows) {
      std::printf("%-34s %6d %6d %10.2f %10.2f %7.2fx %#18llx\n", "",
                  row.shards, row.effective_shards, row.boot_sim_s,
                  row.wall_s, row.speedup,
                  static_cast<unsigned long long>(row.counters_fp));
    }
    std::printf("%-34s identity: %s%s\n", "",
                fr.identical ? "bit-identical across shard counts"
                             : "DIVERGED — kernel bug",
                gate && !fr.speedup_ok ? "; speedup gate FAILED" : "");

    scenario::Json jf;
    jf.set("spec", fr.spec);
    jf.set("identical", fr.identical);
    jf.set("speedup_gate_armed", gate);
    jf.set("speedup_ok", fr.speedup_ok);
    scenario::Json jrows{scenario::JsonArray{}};
    for (const auto& row : fr.rows) {
      scenario::Json jr;
      jr.set("shards", row.shards);
      jr.set("effective_shards", row.effective_shards);
      jr.set("converged", row.converged);
      jr.set("boot_sim_s", row.boot_sim_s);
      jr.set("wall_s", row.wall_s);
      jr.set("speedup", row.speedup);
      jr.set("counters_fp_hex", [&] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(row.counters_fp));
        return std::string(buf);
      }());
      jrows.push_back(std::move(jr));
    }
    jf.set("rows", std::move(jrows));
    jfabrics.push_back(std::move(jf));
  }

  scenario::Json doc;
  doc.set("bench", "sim_parallel");
  doc.set("mode", quick ? "quick" : "full");
  doc.set("trials", trials);
  doc.set("cores", static_cast<double>(cores));
  doc.set("speedup_gate_armed", arm_speedup);
  doc.set("pass", all_pass);
  doc.set("fabrics", std::move(jfabrics));
  std::ofstream out(json_path);
  out << doc.pretty();
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  std::printf("%s\n", all_pass ? "PASS (outcomes bit-identical at every "
                                 "shard count)"
                               : "FAIL (see rows above)");
  return all_pass ? 0 : 1;
}
