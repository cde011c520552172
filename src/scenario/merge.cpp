#include "scenario/merge.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace ren::scenario {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("merge: " + what);
}

/// A cell's generic-axis point, reconstructed from its "axes" member (the
/// cell identity under shard merging is topology + controllers + axes).
AxisPoint axes_from_cell(const Json& cell) {
  AxisPoint out;
  if (const Json* axes = cell.find("axes"); axes != nullptr) {
    for (const auto& [name, value] : axes->as_object()) {
      out.emplace_back(name, value.as_number());
    }
  }
  return out;
}

/// Errored trials are reported as "trial N: message" strings; recover the
/// trial index and the message so they re-aggregate in trial order.
std::pair<int, TrialOutcome> outcome_from_error(const std::string& entry) {
  const std::string prefix = "trial ";
  if (entry.compare(0, prefix.size(), prefix) != 0) {
    bad("unparseable error entry \"" + entry + "\"");
  }
  std::size_t used = 0;
  int trial = -1;
  try {
    trial = std::stoi(entry.substr(prefix.size()), &used);
  } catch (const std::exception&) {
    bad("unparseable error entry \"" + entry + "\"");
  }
  const std::size_t sep = prefix.size() + used;
  if (trial < 0 || entry.compare(sep, 2, ": ") != 0) {
    bad("unparseable error entry \"" + entry + "\"");
  }
  TrialOutcome out;
  out.ok = false;
  out.error = entry.substr(sep + 2);
  return {trial, std::move(out)};
}

}  // namespace

CampaignResult merge_campaigns(const std::vector<Json>& shards,
                               bool include_raw) {
  if (shards.empty()) bad("no shard reports given");

  CampaignResult result;
  const Json& first = shards.front();
  result.scenario = first.at("scenario").as_string();
  result.description = first.at("description").as_string();
  result.profile = first.at("profile").as_string();
  result.trials_per_cell =
      static_cast<int>(first.at("trials_per_cell").as_number());
  result.base_seed = static_cast<std::uint64_t>(first.at("seed").as_number());
  result.shard_index = 0;
  result.shard_count = 1;

  const JsonArray& first_cells = first.at("cells").as_array();
  // (cell index) -> trial -> outcome, accumulated over every shard.
  std::vector<std::map<int, TrialOutcome>> merged(first_cells.size());

  for (const Json& shard : shards) {
    for (const char* key :
         {"scenario", "description", "profile", "seed", "trials_per_cell"}) {
      if (shard.at(key).dump() != first.at(key).dump()) {
        bad("shards come from different campaigns (scenario/profile/seed/"
            "trials mismatch)");
      }
    }
    const JsonArray& cells = shard.at("cells").as_array();
    if (cells.size() != first_cells.size()) bad("shard grids differ");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Json& cell = cells[c];
      if (cell.at("topology").as_string() !=
              first_cells[c].at("topology").as_string() ||
          cell.at("controllers").as_number() !=
              first_cells[c].at("controllers").as_number() ||
          axes_from_cell(cell) != axes_from_cell(first_cells[c])) {
        bad("shard grids differ (cell " + std::to_string(c) + ")");
      }
      const int executed = static_cast<int>(cell.at("trials").as_number());
      const Json* raw = cell.find("raw");
      const std::size_t raw_n = raw != nullptr ? raw->as_array().size() : 0;
      if (static_cast<std::size_t>(executed) != raw_n) {
        bad("cell \"" + cell.at("topology").as_string() + "\" reports " +
            std::to_string(executed) + " trials but " +
            std::to_string(raw_n) +
            " raw samples; run the campaign with --raw");
      }
      auto add = [&](int trial, TrialOutcome out) {
        if (trial < 0 || trial >= result.trials_per_cell) {
          bad("trial index " + std::to_string(trial) + " out of range");
        }
        if (!merged[c].emplace(trial, std::move(out)).second) {
          bad("trial " + std::to_string(trial) + " of cell \"" +
              cell.at("topology").as_string() +
              "\" appears in more than one shard");
        }
      };
      if (raw != nullptr) {
        for (const Json& rj : raw->as_array()) {
          add(static_cast<int>(rj.at("trial").as_number()),
              trial_outcome_from_json(rj));
        }
      }
      if (const Json* errs = cell.find("errors"); errs != nullptr) {
        for (const Json& e : errs->as_array()) {
          auto [trial, out] = outcome_from_error(e.as_string());
          add(trial, std::move(out));
        }
      }
    }
  }

  for (std::size_t c = 0; c < first_cells.size(); ++c) {
    std::vector<std::pair<int, TrialOutcome>> outcomes;
    outcomes.reserve(merged[c].size());
    for (auto& [trial, out] : merged[c]) {
      outcomes.emplace_back(trial, std::move(out));  // map => trial order
    }
    result.cells.push_back(aggregate_cell(
        first_cells[c].at("topology").as_string(),
        static_cast<int>(first_cells[c].at("controllers").as_number()),
        axes_from_cell(first_cells[c]), std::move(outcomes), include_raw));
  }
  return result;
}

}  // namespace ren::scenario
