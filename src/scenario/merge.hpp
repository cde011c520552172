// Shard merging: fold `ren_scenarios --shard k/n --raw` reports back into
// one campaign aggregate (the multi-machine story's missing half).
//
// Shard reports carry raw per-trial samples; trial seeds depend only on the
// grid coordinates, so the union of the shards' samples is exactly the
// sample set an unsharded run would have produced. merge_campaigns()
// reconstructs the per-trial outcomes from the raw arrays with
// trial_outcome_from_json (and the errors list for trials that threw), then
// re-aggregates them through the same aggregate_cell() the runner uses —
// the report format lives in runner.cpp alone. With the JSON number format
// round-tripping doubles exactly, the merged report is byte-identical to
// the unsharded campaign's (non-raw) report when the shards cover the full
// grid.
#pragma once

#include <vector>

#include "scenario/json.hpp"
#include "scenario/runner.hpp"

namespace ren::scenario {

/// Merge shard campaign reports (parsed JSON documents produced with
/// --raw). Throws std::invalid_argument on inconsistent campaign metadata
/// (scenario, seed, profile, trial count, grid), overlapping trials, or a
/// shard whose executed trials carry no raw samples. Shards covering only
/// part of the grid merge fine — the result then aggregates exactly the
/// trials present (callers can compare trials-per-cell against
/// trials_per_cell to detect gaps). With `include_raw` the merged cells
/// keep their per-trial outcomes in CellResult::raw (the --rows readback).
[[nodiscard]] CampaignResult merge_campaigns(const std::vector<Json>& shards,
                                             bool include_raw = false);

}  // namespace ren::scenario
