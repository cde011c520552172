// Integration: in-band bootstrap from empty switch configurations
// (the paper's Section 6.4.1 experiment, as correctness tests).
#include <gtest/gtest.h>

#include <ostream>

#include "test_helpers.hpp"

namespace ren::sim {
namespace {

using ren::testing::bootstrap_or_fail;
using ren::testing::fast_config;

struct BootCase {
  const char* topology;
  int controllers;
};

// Without this gtest prints the raw bytes of the struct, pointer included,
// so the listed test name would change from run to run.
void PrintTo(const BootCase& c, std::ostream* os) {
  *os << c.topology << " with " << c.controllers << " controllers";
}

class Bootstrap : public ::testing::TestWithParam<BootCase> {};

TEST_P(Bootstrap, ReachesLegitimacy) {
  const auto [name, nc] = GetParam();
  auto cfg = fast_config(name, nc);
  cfg.theta = std::string(name) == "B4" || std::string(name) == "Clos" ? 10 : 30;
  Experiment exp(cfg);
  const auto r = exp.run_until_legitimate(sec(120));
  ASSERT_TRUE(r.converged) << r.last_reason;
  // After legitimacy every switch is managed by every controller.
  std::vector<NodeId> expected;
  for (std::size_t k = 0; k < exp.controller_count(); ++k) {
    expected.push_back(exp.controller(k).id());
  }
  for (auto* s : exp.switches()) {
    auto got = s->managers();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Networks, Bootstrap,
    ::testing::Values(BootCase{"B4", 1}, BootCase{"B4", 3}, BootCase{"B4", 7},
                      BootCase{"Clos", 1}, BootCase{"Clos", 3},
                      BootCase{"Telstra", 3}, BootCase{"Telstra", 7},
                      BootCase{"ATT", 3}, BootCase{"EBONE", 3}),
    [](const auto& info) {
      return std::string(info.param.topology) + "_c" +
             std::to_string(info.param.controllers);
    });

TEST(BootstrapProperties, EverySeedConverges) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto cfg = fast_config("B4", 3, 2, seed);
    Experiment exp(cfg);
    const auto r = exp.run_until_legitimate(sec(60));
    EXPECT_TRUE(r.converged) << "seed " << seed << ": " << r.last_reason;
  }
}

TEST(BootstrapProperties, TimeGrowsWithDiameterAcrossNetworks) {
  // Lemma 5 predicts O(D) bootstrap; check the weak monotone trend the
  // paper reports (Fig. 5): the largest-diameter network takes at least as
  // long as the smallest one.
  auto time_for = [](const char* name) {
    auto cfg = fast_config(name, 3);
    cfg.theta = 10;
    Experiment exp(cfg);
    auto r = exp.run_until_legitimate(sec(120));
    EXPECT_TRUE(r.converged) << name;
    return r.seconds;
  };
  const double t_clos = time_for("Clos");      // D = 4
  const double t_ebone = time_for("EBONE");    // D = 11
  EXPECT_GE(t_ebone, t_clos * 0.8);
}

TEST(BootstrapProperties, ConvergedStateIsStable) {
  auto cfg = fast_config("Clos", 3);
  Experiment exp(cfg);
  bootstrap_or_fail(exp);
  // No faults => stays legitimate for a long window.
  for (int i = 0; i < 20; ++i) {
    exp.sim().run_until(exp.sim().now() + msec(200));
    const auto st = exp.monitor().check();
    EXPECT_TRUE(st.legitimate) << st.reason;
  }
}

TEST(BootstrapProperties, ControllersKeepQueryingForever) {
  // Self-stabilizing algorithms can never stop sending (Section 3.5).
  auto cfg = fast_config("B4", 2);
  Experiment exp(cfg);
  bootstrap_or_fail(exp);
  const auto sent0 = exp.sim().counters().packets_sent;
  exp.sim().run_until(exp.sim().now() + sec(2));
  EXPECT_GT(exp.sim().counters().packets_sent, sent0 + 100);
}

TEST(BootstrapProperties, SurvivesLossyLinks) {
  // The self-stabilizing transport masks packet omission/duplication/
  // reordering (Section 3.1).
  auto cfg = fast_config("B4", 2);
  cfg.link_loss = 0.05;
  Experiment exp(cfg);
  auto& net = exp.sim().network();
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    net::Link& link = net.link(static_cast<int>(i));
    net::LinkFaults f = link.params().faults;
    f.duplicate = 0.05;
    f.reorder = 0.1;
    link.set_faults(f);
  }
  const auto r = exp.run_until_legitimate(sec(120));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

TEST(BootstrapProperties, WorksWithKappaZeroAndThree) {
  for (int kappa : {0, 1, 3}) {
    auto cfg = fast_config("Clos", 2, kappa);
    Experiment exp(cfg);
    const auto r = exp.run_until_legitimate(sec(60));
    EXPECT_TRUE(r.converged) << "kappa=" << kappa << ": " << r.last_reason;
  }
}

}  // namespace
}  // namespace ren::sim
