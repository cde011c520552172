// Shared infrastructure for the ablation and JSON-reporting benches: the
// paper's timer profile, a banner, and the `[--quick] [--json FILE]
// [--trials N]` command line with its result-file writer. The paper's
// figures are specs under scenarios/paper/, run by ren_scenarios.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "renaissance.hpp"

namespace ren::bench {

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

}  // namespace ren::bench
