// Figure rows from campaign reports: `ren_scenarios --rows KIND REPORT...`.
//
// A paper figure is a checked-in spec (scenarios/paper/) run once with
// --raw; this module prints the figure's rows from that report. Reports are
// read back through merge_campaigns, the JSON -> TrialOutcome path --merge
// uses, so every number printed is the runner's own aggregate and one
// campaign feeds several figures (one throughput_window report gives
// Figs. 15 and 18-20).
//
// Every kind labels a cell the same way: its topology, then the controller
// count and each axis value only where they vary across the report's cells
// ("Telstra c=7 victims=3").
#pragma once

#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace ren::scenario {

/// One --rows kind.
///   checkpoint:LABEL  mean, median, p90, min, max, n and converged count of
///                     the named checkpoint's seconds (Figs. 5-7, 10, 13)
///   violin:LABEL[:cmd_per_node_iter]
///                     violin summary of the named checkpoint's per-trial
///                     seconds (or its normalized communication cost),
///                     extrema dismissed, over the trials whose bootstrap
///                     checkpoint converged (Figs. 9, 11, 12, 14)
///   series:FIELD      the traffic window's per-second series, averaged
///                     over trials: mbits_series, retx_pct, bad_pct or
///                     ooo_pct (Figs. 15, 16, 18-20)
///   pearson           Pearson r of two reports' mbits_series, cell by cell
///                     (Fig. 17)
struct RowKind {
  enum class Shape { Checkpoint, Violin, Series, Pearson };
  std::string name;  ///< the KIND as given, echoed in the header line
  Shape shape = Shape::Checkpoint;
  std::string label;  ///< checkpoint and violin: the checkpoint label
  /// violin: a checkpoint_fields() key; series: a series_fields() key
  std::string field;
};

/// Parse a KIND argument. Throws std::invalid_argument naming the accepted
/// forms on anything else.
[[nodiscard]] RowKind parse_row_kind(const std::string& kind);

/// The rows of `reports`, each a --raw report read back with
/// merge_campaigns({report}, /*include_raw=*/true): a `#` header line per
/// report, then one line per cell. pearson takes exactly two reports over the same grid; the other
/// kinds print each report in turn. Throws std::invalid_argument when no
/// cell of a report has the named checkpoint, when pearson gets other than
/// two reports, or when their grids differ.
[[nodiscard]] std::string format_rows(
    const RowKind& kind, const std::vector<CampaignResult>& reports);

}  // namespace ren::scenario
