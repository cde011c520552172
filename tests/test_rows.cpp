// `ren_scenarios --rows`: figure rows printed from --raw campaign reports.
// Each kind is checked against the CampaignResult the runner produced
// directly, after the report went through JSON and back as the CLI reads
// it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "test_helpers.hpp"

namespace ren {
namespace {

using scenario::CampaignResult;
using scenario::Json;
using scenario::RowKind;
using scenario::Scenario;

/// Two B4 cells (victims 1 and 2) of four trials each: bootstrap, a traffic
/// window with a mid-path failure, then controller kills and a recovery.
CampaignResult small_campaign(bool raw = true) {
  Scenario s;
  s.name = "rows_test";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 4;
  s.axis("victims", {1, 2});
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_traffic(sec(2), "window");
  s.fail_path_link(sec(3));
  s.stop_traffic(sec(6));
  s.kill_controller(sec(6), scenario::kCountAxis);
  s.expect_converged(sec(6), "recovery", sec(60));
  scenario::RunnerOptions opt;
  opt.include_raw = raw;
  return scenario::run_campaign(s, opt);
}

/// The report as `--rows` sees it: rendered, parsed, read back.
CampaignResult read_back(const CampaignResult& r) {
  return scenario::merge_campaigns({Json::parse(r.to_json().pretty())},
                                  /*include_raw=*/true);
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string line; std::getline(ss, line);) out.push_back(line);
  return out;
}

/// The rows of `kind` for `reports`, header line dropped.
std::vector<std::string> rows(const std::string& kind,
                              const std::vector<CampaignResult>& reports) {
  auto out =
      lines(scenario::format_rows(scenario::parse_row_kind(kind), reports));
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("# ", 0), 0u) << out.front();
  out.erase(out.begin());
  return out;
}

std::string printf_string(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

TEST(ScenarioRows, CheckpointRowsMatchTheCampaignAggregates) {
  const CampaignResult r = small_campaign();
  const auto got = rows("checkpoint:recovery", {read_back(r)});
  ASSERT_EQ(got.size(), r.cells.size());
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const auto& cp = r.cells[i].checkpoints.at(1);
    ASSERT_EQ(cp.label, "recovery");
    const auto& p = cp.seconds;
    EXPECT_EQ(got[i],
              printf_string("B4 victims=%d mean=%.2f med=%.2f [p90=%.2f] "
                            "(min=%.2f max=%.2f) n=%zu converged=%d/%d [s]",
                            static_cast<int>(i + 1), p.mean, p.p50, p.p90,
                            p.min, p.max, p.n, cp.converged, cp.trials));
  }
}

TEST(ScenarioRows, ViolinRowsDismissExtremaOverBootstrappedTrials) {
  const CampaignResult r = small_campaign();
  CampaignResult back = read_back(r);
  const auto seconds = rows("violin:recovery", {back});
  const auto cost = rows("violin:bootstrap:cmd_per_node_iter", {back});
  ASSERT_EQ(seconds.size(), r.cells.size());
  ASSERT_EQ(cost.size(), r.cells.size());
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    Sample rec, boot;
    for (const auto& [trial, out] : r.cells[i].raw) {
      ASSERT_TRUE(out.checkpoints.at(0).converged) << "trial " << trial;
      boot.add(out.checkpoints.at(0).cmd_per_node_iter);
      rec.add(out.checkpoints.at(1).seconds);
    }
    ASSERT_EQ(rec.size(), 4u);
    const std::string label = printf_string("B4 victims=%d ", int(i + 1));
    EXPECT_EQ(seconds[i],
              label + format_violin(rec.drop_extrema().violin(), 2) + " [s]");
    EXPECT_EQ(cost[i], label + format_violin(boot.drop_extrema().violin(), 2) +
                           " [msgs/node/iter]");
  }
  // A trial whose bootstrap did not converge is left out: 3 trials remain,
  // one after the extrema go.
  back.cells[0].raw[0].second.checkpoints[0].converged = false;
  const auto guarded = rows("violin:recovery", {back});
  EXPECT_NE(guarded[0].find(" n=1"), std::string::npos) << guarded[0];
  EXPECT_NE(guarded[1].find(" n=2"), std::string::npos) << guarded[1];
}

TEST(ScenarioRows, SeriesRowsPrintTheWindowMeans) {
  const CampaignResult r = small_campaign();
  const CampaignResult back = read_back(r);
  const struct {
    const char* field;
    std::vector<double> scenario::CellResult::WindowAgg::*member;
    int precision;
  } fields[] = {
      {"mbits_series", &scenario::CellResult::WindowAgg::mbits_series, 0},
      {"retx_pct", &scenario::CellResult::WindowAgg::retx_pct, 1},
      {"bad_pct", &scenario::CellResult::WindowAgg::bad_pct, 1},
      {"ooo_pct", &scenario::CellResult::WindowAgg::ooo_pct, 1},
  };
  for (const auto& f : fields) {
    const auto got = rows(std::string("series:") + f.field, {back});
    ASSERT_EQ(got.size(), r.cells.size());
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
      const auto& w = r.cells[i].windows.at(0);
      ASSERT_EQ((w.*f.member).size(), 4u) << f.field;
      std::string want = printf_string("B4 victims=%d", int(i + 1));
      for (double v : w.*f.member) want += printf_string(" %.*f", f.precision, v);
      EXPECT_EQ(got[i], want) << f.field;
    }
  }
}

TEST(ScenarioRows, PearsonCorrelatesTwoReportsCellByCell) {
  const CampaignResult r = small_campaign();
  const CampaignResult back = read_back(r);
  // A second report over the same grid whose series differ: each cell's
  // series reversed.
  CampaignResult reversed = back;
  for (auto& cell : reversed.cells) {
    auto& s = cell.windows.at(0).mbits_series;
    std::reverse(s.begin(), s.end());
  }
  const auto self = rows("pearson", {back, back});
  const auto other = rows("pearson", {back, reversed});
  ASSERT_EQ(self.size(), r.cells.size());
  ASSERT_EQ(other.size(), r.cells.size());
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const std::string label = printf_string("B4 victims=%d", int(i + 1));
    EXPECT_EQ(self[i], label + " r=1.00");
    const auto& a = r.cells[i].windows.at(0).mbits_series;
    const std::vector<double> b(a.rbegin(), a.rend());
    EXPECT_EQ(other[i], label + printf_string(" r=%.2f", pearson(a, b)));
  }
}

TEST(ScenarioRows, LabelsNameOnlyWhatVaries) {
  // One label rule for every kind: the topology, then the controller count
  // and each axis value only where they vary across the report's cells.
  CampaignResult r;
  r.scenario = "labels";
  r.profile = "fast";
  r.trials_per_cell = 1;
  for (const char* topo : {"B4", "Clos"}) {
    for (int c : {3, 7}) {
      scenario::CellResult cell;
      cell.topology = topo;
      cell.controllers = c;
      cell.axes = {{"kappa", 2}, {"task_delay_ms", c == 3 ? 500.0 : 20.0}};
      cell.checkpoints.emplace_back().label = "bootstrap";
      r.cells.push_back(std::move(cell));
    }
  }
  const auto got = rows("checkpoint:bootstrap", {r});
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].rfind("B4 c=3 task_delay_ms=500   mean=", 0), 0u) << got[0];
  EXPECT_EQ(got[1].rfind("B4 c=7 task_delay_ms=20    mean=", 0), 0u) << got[1];
  EXPECT_EQ(got[2].rfind("Clos c=3 task_delay_ms=500 mean=", 0), 0u) << got[2];
  EXPECT_EQ(got[3].rfind("Clos c=7 task_delay_ms=20  mean=", 0), 0u) << got[3];

  r.cells.resize(1);  // nothing varies in one cell: the topology alone
  EXPECT_EQ(rows("checkpoint:bootstrap", {r}).at(0).rfind("B4 mean=", 0), 0u);
}

TEST(ScenarioRows, RejectsReportsWithoutRawSamples) {
  const Json report =
      Json::parse(small_campaign(/*raw=*/false).to_json().pretty());
  try {
    (void)scenario::merge_campaigns({report}, /*include_raw=*/true);
    FAIL() << "a report without raw samples was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run the campaign with --raw"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRows, RejectsPearsonOverDifferentGridsAndUnknownLabels) {
  CampaignResult a;
  a.scenario = "a";
  a.cells.emplace_back().topology = "B4";
  CampaignResult b = a;
  b.scenario = "b";
  b.cells[0].topology = "Clos";
  const RowKind pearson_kind = scenario::parse_row_kind("pearson");
  EXPECT_THROW((void)scenario::format_rows(pearson_kind, {a, b}),
               std::invalid_argument);
  b.cells[0].topology = "B4";
  b.cells[0].controllers = 5;
  EXPECT_THROW((void)scenario::format_rows(pearson_kind, {a, b}),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::format_rows(pearson_kind, {a}),
               std::invalid_argument);
  // Same grid, no traffic windows: a row that says so, not an error.
  EXPECT_EQ(rows("pearson", {a, a}), std::vector<std::string>{"B4 r=n/a"});
  // A checkpoint label no cell carries is a typo, not an empty figure.
  EXPECT_THROW((void)scenario::format_rows(
                   scenario::parse_row_kind("checkpoint:recovry"), {a}),
               std::invalid_argument);
}

TEST(ScenarioRows, ParsesEveryKindAndRejectsTheRest) {
  const RowKind v = scenario::parse_row_kind("violin:recovery");
  EXPECT_EQ(v.shape, RowKind::Shape::Violin);
  EXPECT_EQ(v.label, "recovery");
  EXPECT_EQ(v.field, "seconds");
  EXPECT_EQ(scenario::parse_row_kind("violin:bootstrap:cmd_per_node_iter")
                .field,
            "cmd_per_node_iter");
  EXPECT_EQ(scenario::parse_row_kind("checkpoint:wave_1").label, "wave_1");
  EXPECT_EQ(scenario::parse_row_kind("series:ooo_pct").field, "ooo_pct");
  EXPECT_EQ(scenario::parse_row_kind("pearson").shape,
            RowKind::Shape::Pearson);
  for (const char* bad :
       {"", "violin", "violin:", "violin:recovery:mbits", "checkpoint",
        "checkpoint:a:b", "series:goodput", "series", "pearson:x", "bars"}) {
    EXPECT_THROW((void)scenario::parse_row_kind(bad), std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace ren
