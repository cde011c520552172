// Parallel simulation kernel: per-node RNG stream derivation, shard
// planning, and the bit-reproducibility contract — the same (spec, seed)
// must produce byte-identical trial outcomes at every shard count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace ren {
namespace {

using scenario::Scenario;

// --- Per-node RNG streams ----------------------------------------------------

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

// --- Shard planning ----------------------------------------------------------

TEST(SimParallelShardPlan, ExperimentConfiguresRequestedShards) {
  auto cfg = testing::fast_config("fat_tree:k=4", 3);
  cfg.sim_threads = 4;
  sim::Experiment exp(cfg);
  EXPECT_EQ(exp.sim().shard_count(), 4);
  // Every link in the fast profile has the same one-way latency, so the
  // conservative window width is exactly that latency.
  EXPECT_EQ(exp.sim().lookahead(), cfg.link_latency);
  testing::bootstrap_or_fail(exp);
}

TEST(SimParallelShardPlan, ZeroLatencyLinksFallBackToSerial) {
  // Without lookahead the conservative windows would be empty; the plan
  // must degrade to the serial kernel instead of spinning forever.
  auto cfg = testing::fast_config("B4", 3);
  cfg.link_latency = 0;
  cfg.sim_threads = 4;
  sim::Experiment exp(cfg);
  EXPECT_EQ(exp.sim().shard_count(), 1);
}

TEST(SimParallelShardPlan, PlanCoversAllNodesAndPinsHostsToShardZero) {
  auto cfg = testing::fast_config("fat_tree:k=4", 3);
  cfg.with_hosts = true;
  sim::Experiment exp(cfg);
  const auto& net = exp.sim().network();
  std::vector<NodeKind> kinds;
  for (std::size_t id = 0; id < net.node_count(); ++id) {
    kinds.push_back(exp.sim().node(static_cast<NodeId>(id)).kind());
  }
  const auto plan = net::make_shard_plan(net, kinds, 4);
  ASSERT_EQ(plan.shards, 4);
  ASSERT_EQ(plan.shard_of.size(), kinds.size());
  std::vector<int> load(4, 0);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    ASSERT_GE(plan.shard_of[i], 0);
    ASSERT_LT(plan.shard_of[i], 4);
    ++load[static_cast<std::size_t>(plan.shard_of[i])];
    if (kinds[i] == NodeKind::Host) {
      EXPECT_EQ(plan.shard_of[i], 0);
    }
  }
  for (int shard = 0; shard < 4; ++shard) EXPECT_GT(load[shard], 0);
  EXPECT_GT(plan.cross_links, 0u);
  EXPECT_EQ(plan.lookahead, cfg.link_latency);
}

TEST(SimParallelShardPlan, SuggestionIsAClampedPowerOfTwo) {
  const int tiny = net::suggest_sim_shards(12, 19, 5);        // B4
  const int big = net::suggest_sim_shards(1344, 3072, 6);     // fat_tree:k=16
  EXPECT_EQ(tiny, 1);
  EXPECT_GE(big, 2);
  EXPECT_LE(big, 16);
  EXPECT_EQ(big & (big - 1), 0) << "not a power of two: " << big;
  // The diameter caps the suggestion: a cross-shard packet spends at least
  // one epoch per hop, so a shallow fabric stops profiting early.
  EXPECT_LE(net::suggest_sim_shards(1344, 3072, 2), 2);
}

// --- Bit-reproducibility across shard counts ---------------------------------

// A fault storm whose victims land in different shards: switch kills, link
// cuts, then a heal — every category of cross-shard stimulus (packets,
// permanent link state, node revival) crosses at least one boundary on
// fat_tree:k=4 at 4 shards.
Scenario storm_scenario() {
  Scenario s;
  s.name = "shard_storm";
  s.topologies = {"fat_tree:k=4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.kill_switches(sec(2), 2);
  s.fail_links(sec(3), 2);
  s.expect_converged(sec(3), "degraded", sec(90));
  s.restore_links(sec(12));
  s.restart_nodes(sec(12));
  s.expect_converged(sec(12), "healed", sec(90));
  return s;
}

TEST(SimParallelDeterminism, FaultStormIsByteIdenticalAtEveryShardCount) {
  const Scenario s = storm_scenario();
  std::string reference;
  std::uint64_t reference_fp = 0;
  for (int shards : {1, 2, 4, 8}) {
    scenario::RunnerOptions opt;
    opt.threads = 1;
    opt.sim_threads = shards;
    const auto out = scenario::run_trial(s, "fat_tree:k=4", 3, 0, opt);
    ASSERT_TRUE(out.ok) << "sim_threads=" << shards << ": " << out.error;
    const std::string json = scenario::trial_outcome_json(out).pretty();
    if (reference.empty()) {
      reference = json;
      reference_fp = out.counters_fp;
      ASSERT_NE(reference_fp, 0u);
    } else {
      EXPECT_EQ(json, reference) << "outcome diverged at sim_threads="
                                 << shards;
      EXPECT_EQ(out.counters_fp, reference_fp)
          << "counters diverged at sim_threads=" << shards;
    }
  }
}

TEST(SimParallelDeterminism, TrafficWindowIsByteIdenticalAcrossShardCounts) {
  // Hosts all live in shard 0 but their traffic rides switches owned by
  // other shards, so goodput accounting exercises the cross-shard path.
  Scenario s;
  s.name = "shard_traffic";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_traffic(sec(8), "win");
  s.fail_path_link(sec(10));
  s.stop_traffic(sec(12));

  std::string reference;
  for (int shards : {1, 4}) {
    scenario::RunnerOptions opt;
    opt.threads = 1;
    opt.sim_threads = shards;
    const auto out = scenario::run_trial(s, "B4", 3, 0, opt);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.windows.size(), 1u);
    EXPECT_GT(out.windows[0].mbits, 0.0);
    const std::string json = scenario::trial_outcome_json(out).pretty();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference);
    }
  }
}

TEST(SimParallelDeterminism, ParanoidSimPassesOnTheParallelKernel) {
  // --paranoid-sim re-runs the trial on the serial kernel and compares the
  // rendered outcome byte-for-byte; any kernel divergence throws and fails
  // the trial, so ok == true IS the assertion.
  scenario::RunnerOptions opt;
  opt.threads = 1;
  opt.sim_threads = 4;
  opt.paranoid_sim = true;
  const auto out =
      scenario::run_trial(storm_scenario(), "fat_tree:k=4", 3, 0, opt);
  EXPECT_TRUE(out.ok) << out.error;
}

}  // namespace
}  // namespace ren
