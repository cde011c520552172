#include <gtest/gtest.h>

#include <ostream>

#include "test_helpers.hpp"
#include "topo/topologies.hpp"

namespace ren::topo {
namespace {

using ren::testing::flat_of;

struct Expected {
  const char* name;
  int nodes;
  int diameter;
};

// Without this gtest prints the raw bytes of the struct, pointer included,
// so the listed test name would change from run to run.
void PrintTo(const Expected& e, std::ostream* os) {
  *os << e.name << ", n=" << e.nodes << ", diameter=" << e.diameter;
}

/// Table 8 of the paper.
class PaperTopologies : public ::testing::TestWithParam<Expected> {};

TEST_P(PaperTopologies, MatchesTable8) {
  const auto [name, nodes, diameter] = GetParam();
  const auto t = by_name(name);
  EXPECT_EQ(t.switch_graph.n(), nodes);
  EXPECT_EQ(flat_of(t.switch_graph).diameter(), diameter);
  EXPECT_EQ(t.expected_diameter, diameter);
}

TEST_P(PaperTopologies, IsTwoEdgeConnected) {
  const auto t = by_name(GetParam().name);
  EXPECT_GE(flat_of(t.switch_graph).edge_connectivity(), 2)
      << t.name << " must survive any single link failure";
}

TEST_P(PaperTopologies, GenerationIsDeterministic) {
  const auto a = by_name(GetParam().name);
  const auto b = by_name(GetParam().name);
  EXPECT_TRUE(a.switch_graph == b.switch_graph);
}

INSTANTIATE_TEST_SUITE_P(Table8, PaperTopologies,
                         ::testing::Values(Expected{"B4", 12, 5},
                                           Expected{"Clos", 20, 4},
                                           Expected{"Telstra", 57, 8},
                                           Expected{"ATT", 172, 10},
                                           Expected{"EBONE", 208, 11}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(Topologies, B4HasNineteenLinks) {
  EXPECT_EQ(make_b4().switch_graph.edge_count(), 19u);
}

TEST(Topologies, ClosIsAFatTree) {
  const auto t = make_clos();
  // 8 edge switches of degree 2, 8 aggregation of degree 4, 4 cores of 4.
  int deg2 = 0, deg4 = 0;
  for (int v = 0; v < t.switch_graph.n(); ++v) {
    const auto d = t.switch_graph.neighbors(v).size();
    if (d == 2) ++deg2;
    if (d == 4) ++deg4;
  }
  EXPECT_EQ(deg2, 8);
  EXPECT_EQ(deg4, 12);
}

TEST(Topologies, IspGeneratorHitsExactTargets) {
  for (int diameter : {6, 9, 12}) {
    for (int nodes : {40, 90}) {
      const auto t = make_isp("x", nodes, diameter, 123);
      EXPECT_EQ(t.switch_graph.n(), nodes);
      auto flat = flat_of(t.switch_graph);
      EXPECT_EQ(flat.diameter(), diameter) << nodes << "/" << diameter;
      EXPECT_GE(flat.edge_connectivity(), 2);
    }
  }
}

TEST(Topologies, IspGeneratorRejectsImpossibleParams) {
  EXPECT_THROW(make_isp("x", 10, 8, 1), std::invalid_argument);
}

TEST(Topologies, ByNameAliasesAndErrors) {
  EXPECT_EQ(by_name("AT&T").name, "ATT");
  EXPECT_EQ(by_name("Ebone").name, "EBONE");
  EXPECT_THROW(by_name("nonsense"), std::invalid_argument);
}

TEST(Topologies, PaperTopologiesOrdering) {
  const auto all = paper_topologies();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "B4");
  EXPECT_EQ(all[4].name, "EBONE");
}

}  // namespace
}  // namespace ren::topo
