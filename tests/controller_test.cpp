#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/controller.h"
#include "env/registry.h"
#include "sim/session.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::make_record;

// A trained classifier over clearly separated synthetic cases.
const core::LibraClassifier& test_classifier() {
  static const core::LibraClassifier clf = [] {
    trace::Dataset ds;
    for (int i = 0; i < 40; ++i) {
      trace::CaseRecord ba = make_record(4, -1, 4);
      ba.init_best.snr_db = 20.0;
      ba.new_at_init_pair.snr_db = 5.0 - 0.1 * (i % 5);
      ba.new_at_init_pair.tof_ns = std::nullopt;
      ds.records.push_back(ba);
      trace::CaseRecord ra = make_record(8, 5, 5);
      ra.init_best.snr_db = 26.0;
      ra.init_best.tof_ns = 20.0;
      ra.new_at_init_pair.snr_db = 19.0 - 0.1 * (i % 7);
      ra.new_at_init_pair.tof_ns = 45.0;
      ds.records.push_back(ra);
      trace::CaseRecord na = make_record(6, 6, 6);
      na.forced_na = true;
      na.init_best.snr_db = 22.0;
      na.new_at_init_pair.snr_db = 22.0 - 0.05 * (i % 3);
      ds.na_records.push_back(na);
    }
    core::LibraClassifier c;
    util::Rng rng(1);
    c.train(ds, {}, rng);
    return c;
  }();
  return clf;
}

struct LiveFixture : ::testing::Test {
  LiveFixture()
      : em(&table),
        lobby(env::make_lobby()),
        tx({2, 6}, 0.0, &codebook),
        rx({10, 6}, 180.0, &codebook),
        link(&lobby, &tx, &rx) {}

  phy::McsTable table;
  phy::ErrorModel em;
  array::Codebook codebook;
  env::Environment lobby;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
};

// ---------- Trajectory ----------

TEST(Trajectory, StationaryHoldsPose) {
  const auto t = sim::Trajectory::stationary({3, 4}, 45.0);
  const auto w = t.at(5000.0);
  EXPECT_DOUBLE_EQ(w.position.x, 3.0);
  EXPECT_DOUBLE_EQ(w.boresight_deg, 45.0);
}

TEST(Trajectory, WalkInterpolatesLinearly) {
  const auto t = sim::Trajectory::walk({0, 0}, {10, 0}, 1000.0);
  EXPECT_DOUBLE_EQ(t.at(0.0).position.x, 0.0);
  EXPECT_DOUBLE_EQ(t.at(500.0).position.x, 5.0);
  EXPECT_DOUBLE_EQ(t.at(1000.0).position.x, 10.0);
  EXPECT_DOUBLE_EQ(t.at(2000.0).position.x, 10.0);  // clamped
}

TEST(Trajectory, WalkFacingFixedTarget) {
  // Walking away while facing the origin: orientation points back.
  const auto t = sim::Trajectory::walk({5, 0}, {15, 0}, 1000.0,
                                       geom::Vec2{0, 0});
  EXPECT_NEAR(t.at(0.0).boresight_deg, 180.0, 1e-9);
  EXPECT_NEAR(t.at(1000.0).boresight_deg, 180.0, 1e-9);
}

TEST(Trajectory, InterpolatesOrientation) {
  const sim::Trajectory t({{0.0, {1, 1}, 0.0}, {1000.0, {1, 1}, 90.0}});
  EXPECT_NEAR(t.at(500.0).boresight_deg, 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(t.at(500.0).position.x, 1.0);
}

TEST(Trajectory, UnsortedWaypointsThrow) {
  EXPECT_THROW(sim::Trajectory({{100.0, {0, 0}, 0.0}, {50.0, {1, 1}, 0.0}}),
               std::invalid_argument);
}

// ---------- LinkController basics ----------

TEST_F(LiveFixture, StartTrainsBeamsAndPicksWorkingMcs) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(1);
  ctrl.start(rng);
  // Straight-ahead geometry: near-center beams, a working MCS.
  EXPECT_NEAR(ctrl.tx_beam(), 12, 1);
  EXPECT_NEAR(ctrl.rx_beam(), 12, 1);
  EXPECT_GE(ctrl.mcs(), 0);
  const double snr = link.snr_db(ctrl.tx_beam(), ctrl.rx_beam());
  EXPECT_GE(em.expected_throughput_mbps(ctrl.mcs(), snr), 150.0);
}

// Start time of frame i of a scripted session under the default config:
// association charges one 5 ms sector sweep, then each frame takes 10 ms
// (until the first BA adds another sweep). Sessions that count frames
// after a BA run frame_t(n + kSlack) and index their windows by frame.
constexpr double frame_t(int i) { return 5.0 + 10.0 * i; }
constexpr int kSlack = 20;

// Index of the first logged frame starting at or after t_ms.
std::size_t first_frame_at(const sim::SessionResult& r, double t_ms) {
  std::size_t i = 0;
  while (i < r.frame_log.size() && r.frame_log[i].t_ms < t_ms) ++i;
  return i;
}

// A session in the fixture's geometry, optionally with one blocker over
// [block_from, block_to).
sim::SessionScript scripted(double duration_ms, double block_from = 0.0,
                            double block_to = 0.0,
                            env::Blocker blocker = {}) {
  sim::SessionScript script;
  script.duration_ms = duration_ms;
  if (block_to > block_from) {
    script.blockage.push_back({block_from, block_to, blocker});
  }
  return script;
}

TEST_F(LiveFixture, SteadyStateDelivers) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(2);
  const auto r =
      sim::run_session(lobby, link, ctrl, scripted(frame_t(100)), rng, true);
  ASSERT_EQ(r.frame_log.size(), 100u);
  EXPECT_GT(r.avg_goodput_mbps, 500.0);
}

TEST_F(LiveFixture, TimeAdvancesByFat) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(3);
  // Association ends at the sweep's kBaOverheadMs; one frame fits before
  // the 6 ms script ends.
  const auto r = sim::run_session(lobby, link, ctrl, scripted(6.0), rng, true);
  ASSERT_EQ(r.frame_log.size(), 1u);
  EXPECT_NEAR(ctrl.time_ms() - r.frame_log[0].t_ms, core::kFatMs, 1e-9);
}

TEST_F(LiveFixture, BlockageMakesRaFirstWalkDown) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(4);
  // Partial blockage from frame 20 on: the initial MCS breaks but a lower
  // one still works.
  const auto r = sim::run_session(
      lobby, link, ctrl,
      scripted(frame_t(80), frame_t(20), frame_t(80), {{6, 6}, 0.25, 12.0}),
      rng, true);
  const std::size_t blocked = first_frame_at(r, frame_t(20));
  ASSERT_LT(blocked, r.frame_log.size());
  const phy::McsIndex before = r.frame_log[blocked].mcs;
  bool triggered_ra = false;
  for (std::size_t i = blocked; i < r.frame_log.size(); ++i) {
    triggered_ra |= r.frame_log[i].action == trace::Action::kRA;
  }
  EXPECT_TRUE(triggered_ra);
  EXPECT_LT(ctrl.mcs(), before);
}

TEST_F(LiveFixture, HardBlockageMakesBaFirstSwitchBeams) {
  core::BaFirstController ctrl(&link, &em);
  util::Rng rng(5);
  // Hard blockage from frame 10 to the end of the session.
  const auto r = sim::run_session(
      lobby, link, ctrl,
      scripted(frame_t(120 + kSlack), frame_t(10), frame_t(120 + kSlack),
               {{6, 6}, 0.3, 35.0}),
      rng, true);
  const std::size_t blocked = first_frame_at(r, frame_t(10));
  ASSERT_GE(r.frame_log.size(), blocked + 60 + 50);
  bool triggered_ba = false;
  for (std::size_t i = blocked; i < blocked + 60; ++i) {
    triggered_ba |= r.frame_log[i].action == trace::Action::kBA;
  }
  EXPECT_TRUE(triggered_ba);
  // The LOS is gone: the controller must have re-trained onto another pair
  // (or at minimum changed something and recovered some goodput).
  double goodput = 0.0;
  for (std::size_t i = blocked + 60; i < blocked + 60 + 50; ++i) {
    goodput += r.frame_log[i].goodput_mbps;
  }
  EXPECT_GT(goodput / 50, 150.0);
}

TEST_F(LiveFixture, RaFirstFallsBackToBaWhenNothingWorks) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(6);
  // Full blockage from frame 10 on: no MCS works on the old pair;
  // Algorithm 1's RA walk must fall back to BA and recover via a reflection.
  const auto r = sim::run_session(
      lobby, link, ctrl,
      scripted(frame_t(310 + kSlack), frame_t(10), frame_t(310 + kSlack),
               {{6, 6}, 0.3, 40.0}),
      rng, true);
  const std::size_t blocked = first_frame_at(r, frame_t(10));
  ASSERT_GE(r.frame_log.size(), blocked + 300);
  double late_goodput = 0.0;
  for (std::size_t i = blocked + 250; i < blocked + 300; ++i) {
    late_goodput += r.frame_log[i].goodput_mbps;
  }
  EXPECT_GT(late_goodput / 50, 150.0);
}

TEST_F(LiveFixture, UpProbingRecoversAfterBlockerLeaves) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(7);
  // Partial blockage over frames [10, 90), then 400 clear frames.
  const auto r = sim::run_session(
      lobby, link, ctrl,
      scripted(frame_t(490), frame_t(10), frame_t(90), {{6, 6}, 0.25, 12.0}),
      rng, true);
  const std::size_t blocked = first_frame_at(r, frame_t(10));
  const std::size_t cleared = first_frame_at(r, frame_t(90));
  ASSERT_LT(cleared, r.frame_log.size());
  const phy::McsIndex healthy = r.frame_log[blocked].mcs;
  EXPECT_LT(r.frame_log[cleared].mcs, healthy);
  EXPECT_GE(ctrl.mcs(), healthy - 1);
}

TEST_F(LiveFixture, WalkFramesCarryNoDecision) {
  core::RaFirstController ctrl(&link, &em);
  util::Rng rng(22);
  ctrl.start(rng);
  // Full blockage forces the RA walk; while walking, observe() must mark
  // the frame as not decision-due and apply() must leave the report alone.
  lobby.add_blocker({{6, 6}, 0.3, 40.0});
  bool saw_walk_frame = false;
  for (int i = 0; i < 40; ++i) {
    core::DecisionRequest request = ctrl.observe(rng);
    const trace::Action verdict = request.resolved_without_inference();
    if (!request.decision_due) {
      saw_walk_frame = true;
      EXPECT_FALSE(request.needs_inference());
      EXPECT_EQ(verdict, trace::Action::kNA);
    }
    ctrl.apply(verdict, request, rng);
  }
  EXPECT_TRUE(saw_walk_frame);
}

TEST_F(LiveFixture, LibraControllerNeedsClassifier) {
  EXPECT_THROW(core::LibraController(&link, &em, nullptr),
               std::invalid_argument);
}

TEST_F(LiveFixture, LibraControllerRunsAndAdapts) {
  core::LibraController ctrl(&link, &em, &test_classifier());
  util::Rng rng(8);
  // Hard blockage from frame 20 to the end of the session.
  const auto r = sim::run_session(
      lobby, link, ctrl,
      scripted(frame_t(170 + kSlack), frame_t(20), frame_t(170 + kSlack),
               {{6, 6}, 0.3, 35.0}),
      rng, true);
  const std::size_t blocked = first_frame_at(r, frame_t(20));
  ASSERT_GE(r.frame_log.size(), blocked + 100 + 50);
  int adaptations = 0;
  for (std::size_t i = blocked; i < blocked + 100; ++i) {
    adaptations += r.frame_log[i].action != trace::Action::kNA;
  }
  EXPECT_GT(adaptations, 0);
  double goodput = 0.0;
  for (std::size_t i = blocked + 100; i < blocked + 100 + 50; ++i) {
    goodput += r.frame_log[i].goodput_mbps;
  }
  EXPECT_GT(goodput / 50, 150.0);
}

// ---------- sessions ----------

TEST_F(LiveFixture, StaticSessionStaysUp) {
  core::RaFirstController ctrl(&link, &em);
  sim::SessionScript script;
  script.duration_ms = 3000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  util::Rng rng(9);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GT(r.avg_goodput_mbps, 500.0);
  EXPECT_EQ(r.outages, 0);
  EXPECT_GE(r.frames, 290);
}

TEST_F(LiveFixture, BlockageEpisodeCausesOneOutageWindow) {
  core::BaFirstController ctrl(&link, &em);
  sim::SessionScript script;
  script.duration_ms = 5000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  script.blockage.push_back({2000.0, 3000.0, {{6, 6}, 0.3, 35.0}});
  util::Rng rng(10);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GE(r.outages, 1);
  EXPECT_GT(r.adaptations_ba, 0);
  // The outage must be shorter than the blockage: adaptation worked.
  EXPECT_LT(r.total_outage_ms, 1000.0);
}

TEST_F(LiveFixture, InterferenceEpisodeAppliesAndClears) {
  core::RaFirstController ctrl(&link, &em);
  sim::SessionScript script;
  script.duration_ms = 3000.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  script.interference.push_back({1000.0, 2000.0, {{10, 1}, 50.0, 0.5}});
  util::Rng rng(11);
  const auto r =
      sim::run_session(lobby, link, ctrl, script, rng, /*log=*/true);
  ASSERT_FALSE(r.frame_log.empty());
  // Goodput during the burst window is depressed relative to before.
  double before = 0.0, during = 0.0;
  int nb = 0, nd = 0;
  for (const auto& f : r.frame_log) {
    if (f.t_ms < 900) {
      before += f.goodput_mbps;
      ++nb;
    } else if (f.t_ms >= 1100 && f.t_ms < 1900) {
      during += f.goodput_mbps;
      ++nd;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(nd, 0);
  EXPECT_LT(during / nd, 0.85 * (before / nb));
}

TEST_F(LiveFixture, WalkSessionKeepsLinkAlive) {
  core::LibraController ctrl(&link, &em, &test_classifier());
  sim::SessionScript script;
  script.duration_ms = 8000.0;
  script.rx_trajectory = sim::Trajectory::walk(
      {6, 6}, {20, 6}, 8000.0, geom::Vec2{2, 6});
  util::Rng rng(12);
  const auto r = sim::run_session(lobby, link, ctrl, script, rng);
  EXPECT_GT(r.avg_goodput_mbps, 300.0);
  EXPECT_LT(r.total_outage_ms, 1500.0);
}

TEST_F(LiveFixture, SessionRejectsNonPositiveDuration) {
  core::RaFirstController ctrl(&link, &em);
  sim::SessionScript script;
  script.duration_ms = 0.0;
  util::Rng rng(14);
  EXPECT_THROW(sim::run_session(lobby, link, ctrl, script, rng),
               std::invalid_argument);
  script.duration_ms = -100.0;
  EXPECT_THROW(sim::run_session(lobby, link, ctrl, script, rng),
               std::invalid_argument);
}

TEST_F(LiveFixture, SessionFrameLogOnlyWhenRequested) {
  core::RaFirstController ctrl(&link, &em);
  sim::SessionScript script;
  script.duration_ms = 500.0;
  script.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
  util::Rng rng(13);
  const auto quiet = sim::run_session(lobby, link, ctrl, script, rng, false);
  EXPECT_TRUE(quiet.frame_log.empty());
}

}  // namespace
}  // namespace libra
