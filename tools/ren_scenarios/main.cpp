// ren_scenarios — run a fault-timeline scenario campaign in parallel.
//
//   ren_scenarios --list
//   ren_scenarios --scenario rolling_restart --trials 8 --threads 8
//   ren_scenarios --spec my_scenario.json --out results.json
//   ren_scenarios --scenario partition_and_heal --topologies B4,ATT
//                 --controllers 3,5 --seed 7 --paper-timers
//   ren_scenarios --spec scenarios/paper/fig10.json --paper-timers --raw
//                 --out fig10.json
//   ren_scenarios --rows violin:recovery fig10.json
//
// Output is a JSON document of per-cell percentile aggregates; identical
// input (scenario + seed + timer profile) produces byte-identical output
// regardless of --threads.
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "renaissance.hpp"
#include "util/log.hpp"

namespace {

using namespace ren;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ren_scenarios (--scenario NAME | --spec FILE) [options]\n"
               "       ren_scenarios --merge SHARD.json... [--out FILE]\n"
               "       ren_scenarios --rows KIND REPORT.json...\n"
               "       ren_scenarios --list | --list-topos\n"
               "\n"
               "options:\n"
               "  --list                 list built-in scenarios and exit\n"
               "  --list-topos           list registered topologies (builtins,\n"
               "                         generators, loaders) with node/link\n"
               "                         counts and exit\n"
               "  --scenario NAME        run a built-in scenario\n"
               "  --spec FILE            run a JSON scenario spec ('-' = stdin)\n"
               "  --print-spec           print the scenario's JSON spec, don't run\n"
               "  --topologies A,B,...   override the topology axis (specs:\n"
               "                         builtin names, fat_tree:k=K,\n"
               "                         random_wan:nodes=N[,m=M][,seed=S],\n"
               "                         isp:nodes=N,diameter=D[,seed=S],\n"
               "                         file:PATH — see --list-topos)\n"
               "  --controllers N,M,...  override the controller-count axis\n"
               "  --axis NAME=V1,V2,...  add/override a generic config axis\n"
               "                         (kappa, theta, task_delay_ms,\n"
               "                         link_loss, victims, churn_rate,\n"
               "                         table_capacity); repeatable, crossed\n"
               "                         with the topology/controller grid\n"
               "  --trials N             seeded repetitions per grid cell\n"
               "  --seed S               campaign base seed (0 .. 2^53)\n"
               "  --threads N            worker threads (default: all cores)\n"
               "  --shard K/N            run shard K of N (K = 1..N); the union\n"
               "                         of all N shard reports is the full\n"
               "                         campaign (seeds depend only on the grid)\n"
               "  --merge FILE...        fold --shard --raw reports back into one\n"
               "                         campaign aggregate (byte-identical to the\n"
               "                         unsharded report when all shards are given)\n"
               "  --rows KIND FILE...    print a figure's rows from --raw reports:\n"
               "                         checkpoint:LABEL, violin:LABEL\n"
               "                         [:cmd_per_node_iter], series:mbits_series\n"
               "                         |retx_pct|bad_pct|ooo_pct, or pearson\n"
               "                         (two reports over the same grid)\n"
               "  --raw                  include raw per-trial samples in the report\n"
               "  --paranoid             differential-check every cached layer\n"
               "                         against its from-scratch oracle: the\n"
               "                         legitimacy monitor per sample and its\n"
               "                         reference rule compiles, each\n"
               "                         controller's res/fusion views and\n"
               "                         planned outbound batches (compared\n"
               "                         by value) per tick (slow)\n"
               "  --paper-timers         paper Section 6.3 timers instead of fast\n"
               "  --out FILE             write the JSON report here (default stdout)\n"
               "  --verbose              enable Info-level simulation logging\n");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// `v` as a whole-string decimal integer in [lo, hi]; anything else is a
/// usage error (exit 2) naming `flag`.
long long int_arg(const std::string& flag, const std::string& v, long long lo,
                  long long hi) {
  long long out = 0;
  const char* end = v.data() + v.size();
  const auto [at, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || at != end || out < lo || out > hi) {
    std::fprintf(stderr, "%s expects an integer in [%lld, %lld], got '%s'\n",
                 flag.c_str(), lo, hi, v.c_str());
    std::exit(2);
  }
  return out;
}

std::string read_file(const std::string& path) {
  if (path == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Write a report to `path`, or to stdout when `path` is empty; throws
/// std::runtime_error when the bytes did not all land (a full disk, a
/// closed pipe), so the run exits 1 instead of reporting success.
void write_report(const std::string& report, const std::string& path) {
  std::FILE* out = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  bool ok = out != nullptr && std::fputs(report.c_str(), out) >= 0;
  if (out != nullptr) {
    ok = (out == stdout ? std::fflush(out) : std::fclose(out)) == 0 && ok;
  }
  if (!ok) {
    throw std::runtime_error("cannot write " +
                             (path.empty() ? "the report to stdout" : path));
  }
  if (!path.empty()) std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name, spec_path, out_path;
  std::string topologies_csv;
  std::vector<int> controllers;
  std::vector<std::pair<std::string, std::vector<double>>> axis_overrides;
  std::vector<std::string> report_inputs;  // --merge / --rows files
  std::optional<scenario::RowKind> rows_kind;
  scenario::RunnerOptions opt;  // the campaign flags land here directly
  int trials = 0;
  std::uint64_t seed = 0;
  bool have_seed = false, print_spec = false, merge_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--list") {
      for (const auto& n : scenario::builtin_names()) {
        const auto s = scenario::builtin(n);
        std::printf("%-28s %s\n", n.c_str(), s.description.c_str());
      }
      return 0;
    } else if (arg == "--list-topos") {
      std::printf("%-36s %-18s %7s %7s %9s  %s\n", "spec", "kind", "nodes",
                  "links", "diameter", "summary");
      for (const auto& t : topo::list_topos()) {
        if (t.nodes > 0) {
          std::printf("%-36s %-18s %7d %7zu %9d  %s\n", t.spec.c_str(),
                      t.kind.c_str(), t.nodes, t.links, t.diameter,
                      t.summary.c_str());
        } else {
          std::printf("%-36s %-18s %7s %7s %9s  %s\n", t.spec.c_str(),
                      t.kind.c_str(), "-", "-", "-", t.summary.c_str());
        }
      }
      return 0;
    } else if (arg == "--scenario") {
      scenario_name = value();
    } else if (arg == "--spec") {
      spec_path = value();
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--topologies") {
      topologies_csv = value();
    } else if (arg == "--controllers") {
      const std::string v = value();
      controllers.clear();
      for (const auto& c : split_csv(v)) {
        controllers.push_back(static_cast<int>(int_arg(arg, c, 1, INT_MAX)));
      }
      if (controllers.empty()) {
        std::fprintf(stderr, "--controllers expects N,M,..., got '%s'\n",
                     v.c_str());
        return 2;
      }
    } else if (arg == "--axis") {
      const std::string v = value();
      const auto eq = v.find('=');
      std::vector<double> values;
      try {
        if (eq == std::string::npos || eq == 0) throw std::invalid_argument(v);
        for (const auto& item : split_csv(v.substr(eq + 1))) {
          std::size_t used = 0;
          values.push_back(std::stod(item, &used));
          if (used != item.size()) throw std::invalid_argument(item);
        }
        if (values.empty()) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "--axis expects NAME=V1,V2,... (e.g. kappa=1,2,3), "
                     "got '%s'\n",
                     v.c_str());
        return 2;
      }
      axis_overrides.emplace_back(v.substr(0, eq), std::move(values));
    } else if (arg == "--trials") {
      trials = static_cast<int>(int_arg(arg, value(), 1, INT_MAX));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(int_arg(
          arg, value(), 0, static_cast<long long>(scenario::kMaxSpecInt)));
      have_seed = true;
    } else if (arg == "--threads") {
      opt.threads = static_cast<int>(int_arg(arg, value(), 1, INT_MAX));
    } else if (arg == "--shard") {
      const std::string v = value();
      const auto slash = v.find('/');
      if (slash == std::string::npos) {
        std::fprintf(stderr, "--shard expects K/N (e.g. 2/4), got '%s'\n",
                     v.c_str());
        return 2;
      }
      opt.shard_count = static_cast<int>(
          int_arg(arg, v.substr(slash + 1), 1, INT_MAX));
      opt.shard_index = static_cast<int>(int_arg(arg, v.substr(0, slash), 1,
                                                 opt.shard_count)) - 1;
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--rows") {
      try {
        rows_kind = scenario::parse_row_kind(value());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--raw") {
      opt.include_raw = true;
    } else if (arg == "--paranoid") {
      opt.paranoid = true;
    } else if (arg == "--paper-timers") {
      opt.paper_timers = true;
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--verbose") {
      ren::set_log_level(LogLevel::Info);
    } else if ((merge_mode || rows_kind) && !arg.empty() && arg[0] != '-') {
      report_inputs.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (merge_mode || rows_kind) {
    const char* mode = merge_mode ? "--merge" : "--rows";
    if (merge_mode && rows_kind) {
      std::fprintf(stderr, "--merge and --rows exclude each other\n");
      return 2;
    }
    if (!scenario_name.empty() || !spec_path.empty()) {
      std::fprintf(stderr, "%s excludes --scenario / --spec\n", mode);
      return 2;
    }
    // Campaign options do not constrain a merge or a row print; reject them
    // instead of silently printing output the flags had no effect on.
    if (print_spec || !topologies_csv.empty() || !controllers.empty() ||
        !axis_overrides.empty() || trials > 0 || have_seed ||
        opt.threads != 0 || opt.shard_count != 1 || opt.include_raw ||
        opt.paranoid || opt.paper_timers ||
        (rows_kind && !out_path.empty())) {
      std::fprintf(stderr,
                   "%s takes only report files%s; campaign options have no "
                   "effect on it\n",
                   mode, merge_mode ? " and --out" : "");
      return 2;
    }
    if (report_inputs.empty()) {
      std::fprintf(stderr, "%s requires at least one report\n", mode);
      return 2;
    }
    if (rows_kind && rows_kind->shape == scenario::RowKind::Shape::Pearson &&
        report_inputs.size() != 2) {
      std::fprintf(stderr, "--rows pearson takes two reports\n");
      return 2;
    }
    try {
      std::vector<scenario::Json> docs;
      docs.reserve(report_inputs.size());
      for (const auto& path : report_inputs) {
        docs.push_back(scenario::Json::parse(read_file(path)));
      }
      if (rows_kind) {
        std::vector<scenario::CampaignResult> reports;
        for (const auto& doc : docs) {
          reports.push_back(
              scenario::merge_campaigns({doc}, /*include_raw=*/true));
        }
        write_report(scenario::format_rows(*rows_kind, reports), "");
        return 0;
      }
      const auto merged = scenario::merge_campaigns(docs);
      write_report(merged.to_json().pretty(), out_path);
      std::size_t have = 0, want = 0;
      for (const auto& cell : merged.cells) {
        have += static_cast<std::size_t>(cell.trials) + cell.errors.size();
        want += static_cast<std::size_t>(merged.trials_per_cell);
      }
      if (have < want) {
        std::fprintf(stderr,
                     "warning: merged %zu of %zu trials — some shards are "
                     "missing\n",
                     have, want);
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (scenario_name.empty() == spec_path.empty()) {
    std::fprintf(stderr, "exactly one of --scenario / --spec is required\n\n");
    usage(stderr);
    return 2;
  }

  try {
    scenario::Scenario s = !scenario_name.empty()
                               ? scenario::builtin(scenario_name)
                               : scenario::parse_spec(read_file(spec_path));
    if (!topologies_csv.empty()) s.topologies = split_csv(topologies_csv);
    if (!controllers.empty()) s.controllers = controllers;
    for (auto& [name, values] : axis_overrides) {
      s.axis(name, std::move(values));  // validates names/values loudly
    }
    if (trials > 0) s.trials = trials;
    if (have_seed) s.base_seed = seed;

    if (print_spec) {
      write_report(scenario::to_spec_json(s).pretty(), "");
      return 0;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = scenario::run_campaign(s, opt);
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    write_report(result.to_json().pretty(), out_path);
    std::size_t ran_trials = 0;
    std::size_t failed = 0;
    for (const auto& cell : result.cells) {
      ran_trials += static_cast<std::size_t>(cell.trials);
      for (const auto& e : cell.errors) {
        std::fprintf(stderr, "warning: %s/%d %s\n", cell.topology.c_str(),
                     cell.controllers, e.c_str());
        ++failed;
      }
    }
    ran_trials += failed;  // errored trials were still executed
    if (opt.shard_count > 1) {
      std::fprintf(stderr, "shard %d/%d: ", opt.shard_index + 1,
                   opt.shard_count);
    }
    std::fprintf(stderr, "%zu trials in %.1fs wall%s\n", ran_trials, elapsed,
                 failed > 0 ? " (some failed, see warnings)" : "");
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
