// Fault-family tests: restore-path edge cases in faults::injector, the
// Byzantine adversary / channel-corruption tentpole, and the determinism
// contracts the adversarial fault family must honor (zero-knob
// byte-identity, watchdog gating).
#include <gtest/gtest.h>

#include "faults/adversary.hpp"
#include "proto/mutate.hpp"
#include "test_helpers.hpp"

namespace ren {
namespace {

using scenario::RunnerOptions;
using scenario::Scenario;

// --- Injector restore-path edge cases ---------------------------------------

// Kill a controller mid-bootstrap, while frames are still in flight toward
// it: the queued deliveries must not wedge the revived incarnation, and the
// system must still converge after the restart.
TEST(Injector, RestartNodeWithInFlightFrames) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  auto cp = exp.control_plane();
  // Advance a little so the bootstrap conversation is mid-flight (frames
  // queued on links and in transport endpoints), but not yet legitimate.
  exp.sim().run_until(msec(300));
  const NodeId victim = cp.controllers.front()->id();
  faults::kill_node(cp, victim);
  exp.sim().run_until(exp.sim().now() + msec(500));
  ASSERT_TRUE(faults::restart_node(cp, victim));
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

// restart_node must put back exactly the link states the kill took down —
// a TransientDown link stays transiently down, it does not come back Up.
TEST(Injector, RestartRestoresExactPriorLinkState) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  const NodeId victim = cp.controllers.front()->id();
  net::Network& net = exp.sim().network();
  const auto& adj = net.adjacency(victim);
  ASSERT_FALSE(adj.empty());
  const int li = adj.front().link;
  net.link(li).set_state(net::LinkState::TransientDown);
  faults::kill_node(cp, victim);
  EXPECT_EQ(net.link(li).state(), net::LinkState::PermanentDown);
  ASSERT_TRUE(faults::restart_node(cp, victim));
  EXPECT_EQ(net.link(li).state(), net::LinkState::TransientDown);
  net.link(li).set_state(net::LinkState::Up);  // let the fabric heal
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

// restore_link racing the restart of the node whose kill downed the link:
// an explicit restore wins, and the later restart_node must not clobber the
// already-restored link back to its pre-kill state. Also: restore_link only
// acts on permanent failures — a TransientDown link (pending expiry) is not
// its to restore.
TEST(Injector, RestoreLinkRacesRestart) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  const NodeId victim = cp.controllers.front()->id();
  net::Network& net = exp.sim().network();
  const auto& adj = net.adjacency(victim);
  ASSERT_FALSE(adj.empty());
  const int li = adj.front().link;
  const NodeId peer = adj.front().neighbor;
  faults::kill_node(cp, victim);
  ASSERT_EQ(net.link(li).state(), net::LinkState::PermanentDown);
  // The fiber gets fixed before the node comes back.
  EXPECT_TRUE(faults::restore_link(cp, victim, peer));
  EXPECT_EQ(net.link(li).state(), net::LinkState::Up);
  ASSERT_TRUE(faults::restart_node(cp, victim));
  EXPECT_EQ(net.link(li).state(), net::LinkState::Up) << "restart clobbered "
                                                         "a restored link";
  // A transiently-down link has a pending expiry, not a permanent failure:
  // restore_link must refuse it.
  net.link(li).set_state(net::LinkState::TransientDown);
  EXPECT_FALSE(faults::restore_link(cp, victim, peer));
  EXPECT_EQ(net.link(li).state(), net::LinkState::TransientDown);
  net.link(li).set_state(net::LinkState::Up);
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

// Double kill and double restore are idempotent: the second kill records no
// extra link state, the second restore reports false and changes nothing.
TEST(Injector, DoubleKillDoubleRestoreIdempotence) {
  sim::Experiment exp(testing::fast_config("B4", 3));
  testing::bootstrap_or_fail(exp);
  auto cp = exp.control_plane();
  const NodeId victim = cp.controllers.front()->id();
  faults::kill_node(cp, victim);
  const auto downed_once = cp.kill_downed_links[victim];
  faults::kill_node(cp, victim);  // all adjacent links already permanent
  EXPECT_EQ(cp.kill_downed_links[victim], downed_once)
      << "second kill re-recorded link state";
  EXPECT_TRUE(faults::restart_node(cp, victim));
  EXPECT_FALSE(faults::restart_node(cp, victim));  // already alive
  EXPECT_TRUE(cp.kill_downed_links.find(victim) == cp.kill_downed_links.end());
  // The duplicate killed_nodes entry from the double kill must be gone too.
  EXPECT_TRUE(std::find(cp.killed_nodes.begin(), cp.killed_nodes.end(),
                        victim) == cp.killed_nodes.end());
  const auto r = exp.run_until_legitimate(sec(60));
  EXPECT_TRUE(r.converged) << r.last_reason;
}

// --- Adversary model ---------------------------------------------------------

TEST(Adversary, ModeNamesRoundTrip) {
  for (auto m : {faults::AdversaryMode::Lying, faults::AdversaryMode::Equivocating,
                 faults::AdversaryMode::Corrupting, faults::AdversaryMode::Babbling}) {
    EXPECT_EQ(faults::adversary_mode_from_string(faults::to_string(m)), m);
  }
  EXPECT_THROW((void)faults::adversary_mode_from_string("friendly"),
               std::invalid_argument);
}

// The adversary draws from its own salted per-node stream: two instances
// with the same (node, seed) behave identically, different seeds diverge.
TEST(Adversary, DeterministicPerNodeStreams) {
  faults::Adversary::Config cfg;
  cfg.mode = faults::AdversaryMode::Lying;
  auto make_reply = [] {
    proto::QueryReply r;
    r.id = 7;
    r.nc = {1, 2, 3};
    return r;
  };
  faults::Adversary a(3, 16, cfg, 42), b(3, 16, cfg, 42), c(3, 16, cfg, 43);
  proto::QueryReply ra = make_reply(), rb = make_reply(), rc = make_reply();
  for (int i = 0; i < 8; ++i) {
    a.tamper_reply(1, ra);
    b.tamper_reply(1, rb);
    c.tamper_reply(1, rc);
  }
  EXPECT_EQ(ra.nc, rb.nc);
  EXPECT_EQ(ra.tag_for_querier.epoch, rb.tag_for_querier.epoch);
  // Not a hard guarantee per-field, but 8 lying rounds from a different
  // seed diverging nowhere would mean the stream is not seeded.
  EXPECT_TRUE(ra.nc != rc.nc ||
              ra.tag_for_querier.epoch != rc.tag_for_querier.epoch);
}

// Payload corruption never mutates the shared original (frames are shared
// immutable payloads — a corrupting adversary must deep-copy).
TEST(Adversary, CorruptPayloadCopies) {
  Rng rng(7);
  proto::Message msg{proto::QueryReply{}};
  auto& qr = std::get<proto::QueryReply>(msg);
  qr.id = 4;
  qr.nc = {1, 2};
  proto::Payload original{proto::Frame{
      proto::FrameKind::Act, 3, std::make_shared<const proto::Message>(msg)}};
  const proto::Payload snapshot = original;
  for (int i = 0; i < 32; ++i) {
    const proto::Payload mutated = proto::corrupt_payload(original, rng, 16);
    (void)mutated;
  }
  const auto& of = std::get<proto::Frame>(original);
  const auto& sf = std::get<proto::Frame>(snapshot);
  EXPECT_EQ(std::get<proto::QueryReply>(*of.payload).nc,
            std::get<proto::QueryReply>(*sf.payload).nc);
}

// --- Scenario integration ----------------------------------------------------

Scenario byzantine_probe_scenario() {
  Scenario s;
  s.name = "byz_probe";
  s.topologies = {"B4"};
  s.controllers = {3};
  s.trials = 1;
  s.expect_converged(sec(0), "bootstrap", sec(60));
  s.start_adversary(sec(2), "lying");
  s.stop_adversary(sec(8));
  s.expect_converged(sec(8), "restabilize", sec(120));
  return s;
}

// The watchdog record exists exactly for adversarial scenarios — benign
// trials must not even carry the JSON key (zero-knob byte-identity).
TEST(AdversaryScenario, WatchdogOnlyForAdversarialScenarios) {
  Scenario benign;
  benign.topologies = {"B4"};
  benign.controllers = {3};
  benign.trials = 1;
  benign.expect_converged(sec(0), "bootstrap", sec(60));
  const auto plain = scenario::run_trial(benign, "B4", 3, 0, RunnerOptions{});
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_FALSE(plain.has_watchdog);
  EXPECT_EQ(scenario::trial_outcome_json(plain).find("watchdog"), nullptr);

  const auto byz =
      scenario::run_trial(byzantine_probe_scenario(), "B4", 3, 0,
                          RunnerOptions{});
  ASSERT_TRUE(byz.ok) << byz.error;
  EXPECT_TRUE(byz.has_watchdog);
  ASSERT_NE(scenario::trial_outcome_json(byz).find("watchdog"), nullptr);
  EXPECT_TRUE(byz.wd_restabilized);
  EXPECT_GT(byz.wd_below_s, 0.0);
  EXPECT_GE(byz.wd_episodes, 1);
}

// Spec-level validation of the adversarial event family.
TEST(AdversaryScenario, BuilderAndSpecValidation) {
  Scenario s;
  EXPECT_THROW(s.start_adversary(sec(1), "friendly"), std::invalid_argument);
  EXPECT_THROW(s.start_adversary(sec(1), "lying", 1, 1.0, "router"),
               std::invalid_argument);
  EXPECT_THROW(s.start_adversary(sec(1), "lying", 1, 1.5),
               std::invalid_argument);
  EXPECT_THROW(s.channel_faults(sec(1), /*loss=*/1.0, /*corrupt=*/0.0),
               std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_spec(
          R"({"events":[{"at_ms":0,"kind":"start_adversary","mode":"nope"}]})"),
      std::invalid_argument);
  // Unknown event keys are rejected with the event's index in the message.
  try {
    (void)scenario::parse_spec(
        R"({"events":[{"at_ms":0,"kind":"stop_adversary","blast":1}]})");
    FAIL() << "unknown event key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("events[0]"), std::string::npos)
        << e.what();
  }
}

// Adversarial events survive the spec round-trip byte-exactly.
TEST(AdversaryScenario, EventsRoundTrip) {
  Scenario s;
  s.name = "adv_rt";
  s.start_adversary(sec(1), "equivocating", 2, 0.5, "switch");
  s.channel_faults(sec(2), 0.05, 0.1, 0.02, 0.03);
  s.stop_adversary(sec(3));
  const Scenario reparsed =
      scenario::parse_spec(scenario::to_spec_json(s).pretty());
  EXPECT_EQ(s, reparsed);
}

}  // namespace
}  // namespace ren
