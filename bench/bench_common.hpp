// Shared infrastructure for the per-figure benchmark harnesses.
//
// Parameters mirror the paper's setup (Section 6.3): 500 ms task delay,
// Theta = 10 for the small networks (B4, Clos) and 30 for the Rocketfuel
// ones, kappa = 2, the three-tag evaluation variant, 1000 Mbit/s links,
// 20 repetitions with the two extrema dismissed. One deliberate deviation,
// recorded in EXPERIMENTS.md: the local discovery probes run every 100 ms
// (the paper's wall-clock recovery numbers imply sub-second failure
// detection, which Theta * 500 ms would not give).
#pragma once

#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "renaissance.hpp"

namespace ren::bench {

inline constexpr int kRuns = 20;               // paper: 20 repetitions
inline constexpr std::uint64_t kBaseSeed = 1;  // seeds kBaseSeed..+runs-1

/// The paper's timer profile (sim::paper_profile) with the given fabric,
/// controller count and seed.
inline sim::ExperimentConfig paper_config(const std::string& topology,
                                          int controllers,
                                          std::uint64_t seed) {
  sim::ExperimentConfig cfg = sim::paper_profile(topology);
  cfg.controllers = controllers;
  cfg.seed = seed;
  return cfg;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

/// One violin row, after the paper's methodology (extrema dismissed).
inline void print_violin_row(const std::string& label, const Sample& raw,
                             const char* unit = "s") {
  const Sample s = raw.size() > 2 ? raw.drop_extrema() : raw;
  const auto v = s.violin();
  std::printf("%-14s %s [%s]\n", label.c_str(), format_violin(v, 2).c_str(),
              unit);
}

/// Print a per-second series like the paper's line plots.
inline void print_series(const std::string& label,
                         const std::vector<double>& series, int precision = 0) {
  std::printf("%-14s", label.c_str());
  for (double v : series) std::printf(" %.*f", precision, v);
  std::printf("\n");
}

// --- Scenario-engine ports ---------------------------------------------------
//
// Every figure harness is a declarative Scenario executed by the parallel
// campaign runner (scenario::run_campaign); the helpers below only build
// scenarios and render campaign reports. There are deliberately no serial
// sweep loops here anymore.

/// `arg` as a positive int over the whole string, or 0 when it is not one
/// (trailing junk, a sign, zero or out of range).
inline int positive_int(const char* arg) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno != 0 || v <= 0 || v > INT_MAX) {
    return 0;
  }
  return static_cast<int>(v);
}

/// Trial count from argv[1] (default `def`); exits with a usage error on
/// anything that is not a positive integer. "--quick" (any position) is
/// reported via *quick for harnesses with a CI smoke mode and implies one
/// trial unless a count is also given.
inline int trials_from_argv(int argc, char** argv, int def = kRuns,
                            bool* quick = nullptr) {
  int trials = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick" && quick != nullptr) {
      *quick = true;
      continue;
    }
    trials = positive_int(argv[i]);
    if (trials == 0) {
      std::fprintf(stderr, "usage: %s [trials>0]%s\n", argv[0],
                   quick != nullptr ? " [--quick]" : "");
      std::exit(2);
    }
  }
  if (trials > 0) return trials;
  if (quick != nullptr && *quick) return 1;
  return def;
}

/// The command line of the benches that report a JSON file:
/// `[--quick] [--json FILE] [--trials N]`, --trials only where the bench
/// takes a count. Anything else prints the usage line and exits 2.
struct JsonBenchArgs {
  bool quick = false;
  std::string json_path;
  int trials = 0;  ///< 0 = the bench's default for the mode
};

inline JsonBenchArgs json_bench_args(int argc, char** argv,
                                     std::string default_json,
                                     bool takes_trials) {
  JsonBenchArgs a;
  a.json_path = std::move(default_json);
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--quick] [--json FILE]%s\n", argv[0],
                 takes_trials ? " [--trials N>0]" : "");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (takes_trials && arg == "--trials" && i + 1 < argc) {
      a.trials = positive_int(argv[++i]);
      if (a.trials == 0) usage();
    } else {
      usage();
    }
  }
  return a;
}

/// Write `doc` to `path`; exits 1 when the file cannot be written, so a
/// bench never reports a result file it did not produce.
inline void write_json(const scenario::Json& doc, const std::string& path) {
  std::ofstream out(path);
  out << doc.pretty();
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// The paper's evaluation axes for a figure-port scenario: all five Table 8
/// topologies, 3 controllers, seeded like the hand-rolled harnesses.
inline void paper_axes(scenario::Scenario& s, int trials) {
  s.topologies.clear();
  for (const auto& t : topo::paper_topologies()) s.topologies.push_back(t.name);
  s.controllers = {3};
  s.trials = trials;
  s.base_seed = kBaseSeed;
}

/// The Section 6.4.3 throughput campaign (Figs. 15-20): the built-in
/// `throughput_window` timeline over the five paper topologies. The
/// no-recovery variant (Fig. 16) freezes the controllers at the failure
/// instant, *before* the fail_path_link event (declaration order breaks the
/// timestamp tie), so only pre-installed backup paths carry traffic
/// afterwards.
inline scenario::Scenario throughput_scenario(bool with_recovery, int trials) {
  scenario::Scenario s = scenario::builtin("throughput_window");
  const std::uint64_t keep_seed = s.base_seed;
  paper_axes(s, trials);
  s.base_seed = keep_seed;
  if (!with_recovery) {
    s.name = "fig16_throughput_norecovery";
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      if (s.events[i].kind != scenario::EventKind::FailPathLink) continue;
      scenario::Event freeze;
      freeze.at = s.events[i].at;
      freeze.kind = scenario::EventKind::Freeze;
      s.events.insert(s.events.begin() + static_cast<std::ptrdiff_t>(i),
                      freeze);
      break;
    }
  } else {
    s.name = "fig15_throughput";
  }
  return s;
}

/// The named traffic-window aggregate of a cell, nullptr when absent (e.g.
/// the trial errored before the window opened).
inline const scenario::CellResult::WindowAgg* find_window(
    const scenario::CellResult& cell, const std::string& label) {
  for (const auto& w : cell.windows) {
    if (w.label == label) return &w;
  }
  return nullptr;
}

/// Run a throughput campaign and print one per-second series per network,
/// selected by `pick` (Figs. 15/16/18/19/20 share this shape).
inline void print_throughput_series(
    const scenario::CampaignResult& result,
    const std::function<const std::vector<double>&(
        const scenario::CellResult::WindowAgg&)>& pick,
    int precision = 0) {
  for (const auto& cell : result.cells) {
    const auto* w = find_window(cell, "window");
    if (w == nullptr || w->trials == 0) {
      std::printf("%-14s (experiment did not converge)\n",
                  cell.topology.c_str());
      continue;
    }
    const int diameter = topo::by_name(cell.topology).expected_diameter;
    print_series(cell.topology + " (D=" + std::to_string(diameter) + ")",
                 pick(*w), precision);
  }
}

/// Per-trial seconds of the named checkpoint from a --raw cell. Trials
/// whose `require_converged` checkpoint did not converge are skipped —
/// the guard the old serial recovery loops applied (a recovery measured
/// on a never-legitimate network would skew the figure).
inline Sample checkpoint_sample(const scenario::CellResult& cell,
                                const std::string& label,
                                const char* require_converged = "bootstrap") {
  Sample s;
  for (const auto& [r, out] : cell.raw) {
    (void)r;
    bool eligible = require_converged == nullptr;
    if (!eligible) {
      for (const auto& cp : out.checkpoints) {
        if (cp.label == require_converged && cp.converged) eligible = true;
      }
    }
    if (!eligible) continue;
    for (const auto& cp : out.checkpoints) {
      if (cp.label == label) s.add(cp.seconds);
    }
  }
  return s;
}

/// One row per topology for the named checkpoint of a campaign result.
inline void print_checkpoint_rows(const scenario::CampaignResult& result,
                                  const std::string& label) {
  for (const auto& cell : result.cells) {
    for (const auto& cp : cell.checkpoints) {
      if (cp.label != label) continue;
      const auto& p = cp.seconds;
      std::printf("%-14s med=%.2f [p90=%.2f] (min=%.2f max=%.2f) n=%zu "
                  "converged=%d/%d [s]\n",
                  cell.topology.c_str(), p.p50, p.p90, p.min, p.max, p.n,
                  cp.converged, cp.trials);
    }
  }
}

}  // namespace ren::bench
