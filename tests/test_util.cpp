#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ren {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  // Different seed must diverge quickly.
  Rng a2(42);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedValuesStayInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedValuesCoverRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// The stream derivation is part of the reproducibility contract: checkpoints
// recorded with one build must replay bit-identically on another. These
// literals pin it; a change here invalidates every recorded outcome.
TEST(SimParallelRngStreams, StreamSeedValuesArePinned) {
  // stream_seed(0, 0) is SplitMix64's first output from the canonical
  // increment — a cross-check against the reference implementation.
  static_assert(Rng::stream_seed(0, 0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Rng::stream_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(Rng::stream_seed(42, 1), 0x28efe333b266f103ULL);
  EXPECT_EQ(Rng::stream_seed(42, 255), 0x6acce368974e61eeULL);
  EXPECT_EQ(Rng::stream_seed(0xdeadbeefULL, 7), 0xb30a4ccf430b1b5aULL);
}

TEST(SimParallelRngStreams, FirstDrawsArePinnedAndStreamsAreIndependent) {
  Rng a(Rng::stream_seed(42, 3));
  EXPECT_EQ(a.next_u64(), 0xde9ff54476a1fdcbULL);
  EXPECT_EQ(a.next_u64(), 0xda60e38ef2e493d7ULL);
  // The adjacent stream starts somewhere else entirely.
  Rng b(Rng::stream_seed(42, 4));
  EXPECT_EQ(b.next_u64(), 0x639fead32a7030fbULL);
  // Re-deriving the same stream replays the same sequence.
  Rng a2(Rng::stream_seed(42, 3));
  EXPECT_EQ(a2.next_u64(), 0xde9ff54476a1fdcbULL);
}

TEST(Stats, QuantilesOfKnownSample) {
  Sample s({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Stats, ViolinSummary) {
  Sample s({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  const auto v = s.violin();
  EXPECT_DOUBLE_EQ(v.min, 10);
  EXPECT_DOUBLE_EQ(v.max, 100);
  EXPECT_NEAR(v.median, 55, 1e-9);
  EXPECT_EQ(v.n, 10u);
  EXPECT_LT(v.q1, v.median);
  EXPECT_GT(v.q3, v.median);
}

TEST(Stats, DropExtremaRemovesMinAndMax) {
  Sample s({5, 1, 9, 3, 7});
  const auto d = s.drop_extrema();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d.min(), 3.0);
  EXPECT_DOUBLE_EQ(d.max(), 7.0);
}

TEST(Stats, PearsonCorrelation) {
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> c{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson(a, flat), 0.0);
  EXPECT_THROW(pearson(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Stats, EmptySampleIsSafe) {
  Sample s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_EQ(s.violin().n, 0u);
}

}  // namespace
}  // namespace ren
