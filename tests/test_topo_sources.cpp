// Topology subsystem (src/topo/): file loaders, parametric generators, and
// the spec registry. Loader tests parse from strings; file-dispatch tests
// write into the gtest temp dir.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "test_helpers.hpp"
#include "topo/generators.hpp"
#include "topo/loaders.hpp"
#include "topo/source.hpp"

namespace ren::topo {
namespace {

using ren::testing::flat_of;

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

// --- Rocketfuel (.cch) ----------------------------------------------------------

TEST(Rocketfuel, ParsesAdjacency) {
  // 3-cycle; neighbor lists are redundant per line (both endpoints list the
  // edge), which must coalesce into single undirected edges.
  const auto t = parse_rocketfuel(
      "1 @city +bb (2) &3 -> <2> <3>\n"
      "2 @city bb (2) -> <1> <3>\n"
      "3 @city bb (2) -> <1> <2>\n",
      "tiny");
  EXPECT_EQ(t.switch_graph.n(), 3);
  EXPECT_EQ(t.switch_graph.edge_count(), 3u);
  EXPECT_EQ(t.expected_diameter, 1);
}

TEST(Rocketfuel, SkipsExternalRouters) {
  // Negative uids are external; links to them are dropped, and the remaining
  // fabric keeps only its largest component.
  const auto t = parse_rocketfuel(
      "1 bb -> <2>\n"
      "2 bb -> <1>\n"
      "-3 ext -> <1>\n",
      "ext");
  EXPECT_EQ(t.switch_graph.n(), 2);
  EXPECT_EQ(t.switch_graph.edge_count(), 1u);
}

TEST(Rocketfuel, TruncatedNeighborRefThrows) {
  EXPECT_THROW(parse_rocketfuel("1 bb -> <2\n2 bb -> <1>\n", "bad"),
               std::runtime_error);
}

TEST(Rocketfuel, SelfLoopThrows) {
  EXPECT_THROW(parse_rocketfuel("1 bb -> <1>\n", "bad"), std::runtime_error);
}

TEST(Rocketfuel, EmptyInputThrows) {
  EXPECT_THROW(parse_rocketfuel("", "bad"), std::runtime_error);
  EXPECT_THROW(parse_rocketfuel("# only a comment\n", "bad"),
               std::runtime_error);
}

TEST(Rocketfuel, KeepsLargestComponent) {
  const auto t = parse_rocketfuel(
      "1 -> <2>\n2 -> <1>\n"
      "10 -> <11> <12>\n11 -> <10> <12>\n12 -> <10> <11>\n",
      "two-islands");
  EXPECT_EQ(t.switch_graph.n(), 3);  // the triangle wins
  EXPECT_EQ(t.switch_graph.edge_count(), 3u);
}

// --- GraphML --------------------------------------------------------------------

constexpr const char* kGraphml = R"(<?xml version="1.0"?>
<graphml><graph edgedefault="undirected">
  <node id="a"/><node id="b"/><node id="c"/>
  <edge source="a" target="b"/>
  <edge source="b" target="c"/>
  <edge source="c" target="a"/>
  <edge source="a" target="b"/>
</graph></graphml>
)";

TEST(Graphml, ParsesNodesAndEdges) {
  const auto t = parse_graphml(kGraphml, "triangle");
  EXPECT_EQ(t.switch_graph.n(), 3);
  EXPECT_EQ(t.switch_graph.edge_count(), 3u);  // duplicate edge coalesced
}

TEST(Graphml, UndeclaredEndpointThrows) {
  EXPECT_THROW(
      parse_graphml("<graphml><node id=\"a\"/>"
                    "<edge source=\"a\" target=\"ghost\"/></graphml>",
                    "bad"),
      std::runtime_error);
}

TEST(Graphml, TruncatedTagThrows) {
  EXPECT_THROW(
      parse_graphml("<graphml><node id=\"a\"/><edge source=\"a\" ", "bad"),
      std::runtime_error);
}

TEST(Graphml, SelfLoopThrows) {
  EXPECT_THROW(
      parse_graphml("<graphml><node id=\"a\"/>"
                    "<edge source=\"a\" target=\"a\"/></graphml>",
                    "bad"),
      std::runtime_error);
}

// --- Edge lists -----------------------------------------------------------------

TEST(Edgelist, ParsesPairsAndComments) {
  const auto t = parse_edgelist(
      "# fabric\n"
      "s1 s2\n"
      "s2 s3\n"
      "s3 s1   # closes the cycle\n"
      "s1 s2\n",  // duplicate, coalesced
      "cycle");
  EXPECT_EQ(t.switch_graph.n(), 3);
  EXPECT_EQ(t.switch_graph.edge_count(), 3u);
}

TEST(Edgelist, WrongTokenCountThrows) {
  EXPECT_THROW(parse_edgelist("a b c\n", "bad"), std::runtime_error);
  EXPECT_THROW(parse_edgelist("lonely\n", "bad"), std::runtime_error);
}

TEST(Edgelist, SelfLoopThrows) {
  EXPECT_THROW(parse_edgelist("a a\n", "bad"), std::runtime_error);
}

// --- File dispatch --------------------------------------------------------------

TEST(LoadFile, DispatchesOnExtension) {
  const auto cch = write_temp("disp.cch", "1 -> <2>\n2 -> <1>\n");
  const auto gml = write_temp("disp.graphml", kGraphml);
  const auto txt = write_temp("disp.edges", "a b\nb c\n");
  EXPECT_EQ(load_file(cch).switch_graph.n(), 2);
  EXPECT_EQ(load_file(gml).switch_graph.n(), 3);
  EXPECT_EQ(load_file(txt).switch_graph.n(), 3);
}

TEST(LoadFile, MissingFileThrows) {
  EXPECT_THROW(load_file("/nonexistent/nowhere.cch"), std::runtime_error);
}

TEST(LoadFileAs, ExplicitFormatOverridesExtension) {
  const auto path = write_temp("as.txt", "1 -> <2>\n2 -> <1>\n");
  EXPECT_EQ(load_file_as(path, "rocketfuel").switch_graph.n(), 2);
  EXPECT_THROW(load_file_as(path, "cbor"), std::runtime_error);
}

// --- Generators -----------------------------------------------------------------

TEST(FatTree, CountsMatchTheory) {
  for (int k : {4, 8, 16}) {
    const auto t = make_fat_tree(k);
    EXPECT_EQ(t.switch_graph.n(), 5 * k * k / 4) << "k=" << k;
    // k^2/2 edge-agg links per pod pair structure + k^2/2 * k/2 ... exact:
    // pods: k * (k/2 * k/2) edge-agg + agg-core: k * k/2 * k/2.
    EXPECT_EQ(t.switch_graph.edge_count(),
              static_cast<std::size_t>(k) * k * k / 4 * 2)
        << "k=" << k;
    auto flat = flat_of(t.switch_graph);
    EXPECT_EQ(flat.diameter(), 4) << "k=" << k;
    EXPECT_EQ(t.expected_diameter, 4);
    EXPECT_EQ(flat.edge_connectivity(), k / 2) << "k=" << k;
  }
}

TEST(FatTree, InvalidParameterThrows) {
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);   // odd
  EXPECT_THROW(make_fat_tree(2), std::invalid_argument);   // too small
  EXPECT_THROW(make_fat_tree(66), std::invalid_argument);  // too large
}

TEST(FatTree, BitReproducible) {
  EXPECT_TRUE(make_fat_tree(8).switch_graph == make_fat_tree(8).switch_graph);
}

TEST(RandomWan, CountsAndConnectivity) {
  const auto t = make_random_wan(200, 2, 42);
  EXPECT_EQ(t.switch_graph.n(), 200);
  // m+1 cycle edges, then m edges per later node.
  EXPECT_EQ(t.switch_graph.edge_count(), 3u + 2u * 197u);
  // lambda >= 2 also means connected.
  EXPECT_GE(flat_of(t.switch_graph).edge_connectivity(), 2);
}

TEST(RandomWan, SeededAndBitReproducible) {
  const auto a = make_random_wan(100, 2, 7);
  const auto b = make_random_wan(100, 2, 7);
  const auto c = make_random_wan(100, 2, 8);
  EXPECT_TRUE(a.switch_graph == b.switch_graph);
  EXPECT_FALSE(a.switch_graph == c.switch_graph);
}

TEST(RandomWan, InvalidParametersThrow) {
  EXPECT_THROW(make_random_wan(10, 1, 1), std::invalid_argument);  // m < 2
  EXPECT_THROW(make_random_wan(2, 2, 1), std::invalid_argument);   // n <= m
}

// --- Spec registry --------------------------------------------------------------

TEST(TopoSource, ResolvesBuiltinsAndGenerators) {
  EXPECT_EQ(resolve("B4").switch_graph.n(), 12);
  EXPECT_EQ(resolve("fat_tree:k=8").switch_graph.n(), 80);
  EXPECT_EQ(resolve("random_wan:nodes=64").switch_graph.n(), 64);
  EXPECT_EQ(resolve("random_wan:nodes=64,m=3,seed=9").switch_graph.n(), 64);
  EXPECT_EQ(resolve("isp:nodes=40,diameter=6").switch_graph.n(), 40);
}

TEST(TopoSource, ResolveIsCachedAndDeterministic) {
  const auto& a = resolve("random_wan:nodes=50,m=2,seed=3");
  const auto& b = resolve("random_wan:nodes=50,m=2,seed=3");
  EXPECT_TRUE(a.switch_graph == b.switch_graph);
}

TEST(TopoSource, MalformedSpecsThrow) {
  EXPECT_THROW(resolve("no_such_topology"), std::invalid_argument);
  EXPECT_THROW(resolve("fat_tree"), std::invalid_argument);
  EXPECT_THROW(resolve("fat_tree:"), std::invalid_argument);
  EXPECT_THROW(resolve("fat_tree:k=8,k=8"), std::invalid_argument);  // dup key
  EXPECT_THROW(resolve("fat_tree:q=8"), std::invalid_argument);  // unknown key
  EXPECT_THROW(resolve("fat_tree:k=abc"), std::invalid_argument);
  EXPECT_THROW(resolve("random_wan:m=2"), std::invalid_argument);  // no nodes
  EXPECT_THROW(resolve("unknown_kind:x=1"), std::invalid_argument);
}

TEST(TopoSource, FileSpecsResolve) {
  const auto path = write_temp("spec.edges", "a b\nb c\nc a\n");
  EXPECT_EQ(resolve("file:" + path).switch_graph.n(), 3);
  EXPECT_EQ(resolve("edgelist:" + path).switch_graph.n(), 3);
  EXPECT_THROW(resolve("file:/nonexistent/x.cch"), std::runtime_error);
}

TEST(TopoSource, ValidateSpecMatchesResolve) {
  EXPECT_NO_THROW(validate_spec("fat_tree:k=4"));
  EXPECT_THROW(validate_spec("fat_tree:k=5"), std::invalid_argument);
}

TEST(TopoSource, ListToposCoversGeneratorsWithCounts) {
  const auto infos = list_topos();
  bool saw_k16 = false, saw_wan = false, saw_b4 = false;
  for (const auto& info : infos) {
    if (info.spec == "fat_tree:k=16") {
      saw_k16 = true;
      EXPECT_EQ(info.nodes, 320);
      EXPECT_EQ(info.links, 2048u);
      EXPECT_EQ(info.diameter, 4);
    }
    if (info.spec == "random_wan:nodes=1024,m=2,seed=1") {
      saw_wan = true;
      EXPECT_EQ(info.nodes, 1024);
    }
    if (info.spec == "B4") saw_b4 = true;
    // The listing reports the stored diameter; it must be the measured one.
    if (info.nodes > 0) {
      EXPECT_EQ(info.diameter,
                flat_of(resolve(info.spec).switch_graph).diameter())
          << info.spec;
    }
  }
  EXPECT_TRUE(saw_k16);
  EXPECT_TRUE(saw_wan);
  EXPECT_TRUE(saw_b4);
}

}  // namespace
}  // namespace ren::topo
