// Integration: the Section 6.4.3 throughput-under-failure experiment, run as
// a scenario timeline on the fast profile.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace ren::sim {
namespace {

using ren::testing::fast_config;

constexpr Time kWindowStart = sec(3);

/// Bootstrap, then a 20 s traffic window from kWindowStart with a mid-path
/// link failure at its 7th second; the no-recovery variant (Fig. 16)
/// freezes the controllers first. A failure that finds no path link throws
/// out of run_timeline.
scenario::TrialOutcome run_variant(bool with_recovery) {
  scenario::Scenario s;
  s.expect_converged(0, "bootstrap", sec(300));
  s.start_traffic(kWindowStart, "window");
  if (!with_recovery) s.freeze(kWindowStart + sec(7));
  s.fail_path_link(kWindowStart + sec(7));
  s.stop_traffic(kWindowStart + sec(20));
  auto cfg = fast_config("B4", 3, 2, /*seed=*/5);
  cfg.link_latency = usec(800);
  return scenario::run_timeline(s, cfg);
}

/// The trial bootstrapped before the window opened (so the failure lands
/// on the window's 7th second) and closed one full 20 s window.
void expect_full_window(const scenario::TrialOutcome& out) {
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.checkpoints.size(), 1u);
  ASSERT_TRUE(out.checkpoints[0].converged);
  ASSERT_LT(out.checkpoints[0].seconds, to_seconds(kWindowStart));
  ASSERT_EQ(out.windows.size(), 1u);
  ASSERT_EQ(out.windows[0].mbits_series.size(), 20u);
}

TEST(Throughput, SteadyDipRecoverShape) {
  const auto out = run_variant(true);
  ASSERT_NO_FATAL_FAILURE(expect_full_window(out));
  const auto& mbits = out.windows[0].mbits_series;
  // Steady before the failure.
  const double before = (mbits[4] + mbits[5] + mbits[6]) / 3;
  EXPECT_GT(before, 100.0);
  // Dip at the failure second.
  EXPECT_LT(mbits[7], before * 0.8);
  // Recovered after a few seconds, to a level near the pre-failure one.
  const double after = (mbits[16] + mbits[17] + mbits[18]) / 3;
  EXPECT_GT(after, before * 0.6);
}

TEST(Throughput, RetransmissionSpikeAtFailure) {
  const auto out = run_variant(true);
  ASSERT_NO_FATAL_FAILURE(expect_full_window(out));
  const auto& retx = out.windows[0].retx_pct;
  double before = 0, at = 0;
  for (int i = 2; i < 7; ++i) before = std::max(before, retx[static_cast<std::size_t>(i)]);
  for (int i = 7; i < 10; ++i) at = std::max(at, retx[static_cast<std::size_t>(i)]);
  EXPECT_GT(at, before);
  EXPECT_GT(at, 0.0);
}

TEST(Throughput, NoRecoveryVariantSurvivesOnBackupPath) {
  const auto out = run_variant(false);
  ASSERT_NO_FATAL_FAILURE(expect_full_window(out));
  const auto& mbits = out.windows[0].mbits_series;
  const double after = (mbits[16] + mbits[17] + mbits[18]) / 3;
  EXPECT_GT(after, 100.0) << "backup path never carried traffic";
}

TEST(Throughput, VariantsCorrelateAsInFig17) {
  const auto a = run_variant(true);
  const auto b = run_variant(false);
  ASSERT_NO_FATAL_FAILURE(expect_full_window(a));
  ASSERT_NO_FATAL_FAILURE(expect_full_window(b));
  const double r =
      pearson(a.windows[0].mbits_series, b.windows[0].mbits_series);
  EXPECT_GT(r, 0.85) << "paper reports 0.92-0.96";
}

TEST(Throughput, PrimaryPathConnectsTheHosts) {
  auto cfg = fast_config("Clos", 2, 1, 9);
  cfg.with_hosts = true;
  Experiment exp(cfg);
  ASSERT_TRUE(exp.run_until_legitimate(sec(60)).converged);
  core::Controller::DataFlowSpec spec;
  spec.host_a = exp.host_a()->id();
  spec.attach_a = exp.host_a()->attach();
  spec.host_b = exp.host_b()->id();
  spec.attach_b = exp.host_b()->attach();
  exp.controller(0).register_data_flow(spec);
  exp.sim().run_until(exp.sim().now() + sec(2));
  const auto path = exp.current_data_path();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), exp.host_a()->id());
  EXPECT_EQ(path.back(), exp.host_b()->id());
  // Primary data path follows a shortest route: host + diameter + host.
  EXPECT_LE(path.size(),
            static_cast<std::size_t>(exp.topology().expected_diameter + 3));
}

}  // namespace
}  // namespace ren::sim
