#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_sim.h"
#include "sim/timeline.h"
#include "sim/vr.h"
#include "test_helpers.h"

namespace libra::sim {
namespace {

using libra::testing::make_record;
using libra::testing::make_trace;

// A simulator replaying a FAT of `fat` and a BA overhead of `ba` (ms).
EventSimulator simulator_at(double fat = 10.0, double ba = 5.0,
                            const core::LibraClassifier* clf = nullptr) {
  trace::GroundTruthConfig gt;
  gt.fat_ms = fat;
  gt.ba_overhead_ms = ba;
  return EventSimulator(gt, clf);
}

EventParams flow(double ms = 1000.0) { return EventParams{ms}; }

double tput_of(const trace::PairTrace& t, int mcs) {
  return t.throughput_mbps[(std::size_t)mcs];
}

// ---------- event simulator: plays via public strategies ----------

TEST(EventSim, NaCaseDeliversSteadyBytes) {
  // The impairment does not break the initial MCS: RA First does nothing
  // and delivers at the (still working) initial configuration.
  const trace::CaseRecord rec = make_record(5, 5, 5);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(1);
  const EventResult r =
      simulator.run(rec, core::Strategy::kRaFirst, flow(), rng);
  // A handful of (failing) upward probe frames cost a few percent.
  const double expected = tput_of(rec.new_at_init_pair, 5) * 1000.0 / 8000.0;
  EXPECT_NEAR(r.bytes_mb, expected, expected * 0.06);
  EXPECT_LE(r.bytes_mb, expected + 1e-9);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 0.0);
  EXPECT_TRUE(r.link_restored);
}

TEST(EventSim, NonPositiveDurationsThrow) {
  // A negative FAT (reachable from the CLI: `--fat -1` parses) would step
  // simulated time backwards and never terminate; fail loudly. The FAT and
  // BA overhead are checked when the simulator is built, the flow per run.
  EXPECT_THROW(simulator_at(-1.0), std::invalid_argument);
  EXPECT_THROW(simulator_at(0.0), std::invalid_argument);
  EXPECT_THROW(simulator_at(10.0, -5.0), std::invalid_argument);
  const trace::CaseRecord rec = make_record(5, 5, 5);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(1);
  for (const double bad : {0.0, -40.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(
        simulator.run(rec, core::Strategy::kRaFirst, flow(bad), rng),
        std::invalid_argument)
        << bad;
  }
}

TEST(EventSim, RaFirstWalksDownWhenBroken) {
  // Initial MCS 6 broken, MCS 3 works on the initial pair.
  const trace::CaseRecord rec = make_record(6, 3, 6);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(2);
  const EventResult r =
      simulator.run(rec, core::Strategy::kRaFirst, flow(), rng);
  // One detection frame, then probes 6, 5, 4 -> 40 ms until restored.
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 50.0);
  EXPECT_EQ(r.settled_pair, PairSel::kInitPair);
  EXPECT_EQ(r.settled_mcs, 3);
}

TEST(EventSim, BaFirstPaysOverheadThenRecovers) {
  const trace::CaseRecord rec = make_record(6, -1, 6);
  const EventSimulator simulator = simulator_at(10.0, 150.0);
  util::Rng rng(3);
  const EventResult r =
      simulator.run(rec, core::Strategy::kBaFirst, flow(), rng);
  // 1 detection frame + 150 ms sweep + 1 probe at MCS 6 which works.
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 170.0);
  EXPECT_EQ(r.settled_pair, PairSel::kBestPair);
  EXPECT_EQ(r.settled_mcs, 6);
}

TEST(EventSim, RaFirstFallsBackToBaWhenExhausted) {
  const trace::CaseRecord rec = make_record(6, -1, 4);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(4);
  const EventResult r =
      simulator.run(rec, core::Strategy::kRaFirst, flow(), rng);
  // 1 detection frame + 7 failed probes (6..0) + 5 ms BA + probes 6,5,4 on
  // the new pair.
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 10.0 + 70.0 + 5.0 + 30.0);
  EXPECT_EQ(r.settled_pair, PairSel::kBestPair);
}

TEST(EventSim, DeadLinkNeverRestores) {
  const trace::CaseRecord rec = make_record(6, -1, -1);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(5);
  const EventResult r =
      simulator.run(rec, core::Strategy::kBaFirst, flow(), rng);
  EXPECT_FALSE(r.link_restored);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 1000.0);  // flow length
}

TEST(EventSim, BytesAccountingIncludesProbeFrames) {
  // Flow of exactly 4 frames: one detection frame at the broken MCS 6
  // (0 bytes), probes 6 and 5 (0 bytes), probe 4 (works, delivers) --
  // bytes = tput(4) * 10 ms.
  const trace::CaseRecord rec = make_record(6, 4, 6);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(6);
  const EventResult r = simulator.run(rec, core::Strategy::kRaFirst,
                                      flow(40.0), rng);
  const double expected = tput_of(rec.new_at_init_pair, 4) * 10.0 / 8000.0;
  EXPECT_NEAR(r.bytes_mb, expected, 1e-9);
}

TEST(EventSim, OracleDataAtLeastAsGoodAsEveryone) {
  for (int after_ra : {-1, 2, 5}) {
    for (int after_ba : {-1, 3, 6}) {
      const trace::CaseRecord rec = make_record(6, after_ra, after_ba);
      const EventSimulator simulator = simulator_at();
      util::Rng rng(7);
      const double oracle =
          simulator.run(rec, core::Strategy::kOracleData, flow(), rng)
              .bytes_mb;
      for (core::Strategy s :
           {core::Strategy::kRaFirst, core::Strategy::kBaFirst}) {
        const double b = simulator.run(rec, s, flow(), rng).bytes_mb;
        EXPECT_GE(oracle + 1e-9, b) << "strategy " << core::to_string(s);
      }
    }
  }
}

TEST(EventSim, OracleDelayMinimizesRecovery) {
  for (int after_ra : {-1, 2, 5}) {
    for (int after_ba : {-1, 3, 6}) {
      const trace::CaseRecord rec = make_record(6, after_ra, after_ba);
      const EventSimulator simulator = simulator_at();
      util::Rng rng(8);
      const double oracle =
          simulator.run(rec, core::Strategy::kOracleDelay, flow(), rng)
              .recovery_delay_ms;
      for (core::Strategy s :
           {core::Strategy::kRaFirst, core::Strategy::kBaFirst}) {
        const double d = simulator.run(rec, s, flow(), rng).recovery_delay_ms;
        EXPECT_LE(oracle, d + 1e-9) << "strategy " << core::to_string(s);
      }
    }
  }
}

TEST(EventSim, LibraRequiresClassifier) {
  const trace::CaseRecord rec = make_record(6, 3, 6);
  const EventSimulator simulator = simulator_at();  // no classifier
  util::Rng rng(9);
  EXPECT_THROW(simulator.run(rec, core::Strategy::kLibra, flow(), rng),
               std::logic_error);
}

TEST(EventSim, LibraNoAckRuleFiresOnDeadLink) {
  // CDR 0 at the initial MCS: the first frame loses its ACK and the rule
  // picks BA (MCS < 6) -- recovery = 1 lead frame + BA + 1 probe.
  core::LibraClassifier clf;
  trace::Dataset ds;
  for (int i = 0; i < 10; ++i) ds.records.push_back(make_record(6, 3, 6));
  util::Rng rng(10);
  clf.train(ds, {}, rng);
  const EventSimulator simulator = simulator_at(10.0, 5.0, &clf);
  const trace::CaseRecord rec = make_record(4, -1, 4);
  const EventResult r =
      simulator.run(rec, core::Strategy::kLibra, flow(), rng);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 10.0 + 5.0 + 10.0);
  EXPECT_EQ(r.settled_pair, PairSel::kBestPair);
}

TEST(EventSim, BeamSoundingHopsToFailoverInstantly) {
  // Primary broken, failover supports MCS 5: recovery = 1 detection frame +
  // 2 probes (6 fails, 5 works) -- no sweep.
  const trace::CaseRecord rec = make_record(
      6, -1, 6, trace::Impairment::kDisplacement, /*after_failover=*/5);
  const EventSimulator simulator = simulator_at(10.0, 150.0);
  util::Rng rng(21);
  const EventResult r = simulator.run(rec, core::Strategy::kBeamSounding,
                                      flow(), rng);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 10.0 + 20.0);
  EXPECT_EQ(r.settled_pair, PairSel::kFailoverPair);
  EXPECT_EQ(r.settled_mcs, 5);
}

TEST(EventSim, BeamSoundingFallsBackToSweepWhenFailoverDead) {
  // Primary and failover both dead: full walk on the failover (7 probes),
  // then the sweep, then recovery on the new best pair.
  const trace::CaseRecord rec = make_record(
      6, -1, 6, trace::Impairment::kDisplacement, /*after_failover=*/-1);
  const EventSimulator simulator = simulator_at(10.0, 150.0);
  util::Rng rng(22);
  const EventResult r = simulator.run(rec, core::Strategy::kBeamSounding,
                                      flow(), rng);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 10.0 + 70.0 + 150.0 + 10.0);
  EXPECT_EQ(r.settled_pair, PairSel::kBestPair);
}

TEST(EventSim, BeamSoundingDoesNothingWhileWorking) {
  const trace::CaseRecord rec = make_record(5, 5, 5);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(23);
  const EventResult r = simulator.run(rec, core::Strategy::kBeamSounding,
                                      flow(), rng);
  EXPECT_DOUBLE_EQ(r.recovery_delay_ms, 0.0);
  EXPECT_EQ(r.settled_pair, PairSel::kInitPair);
}

TEST(EventSim, RecordedSeriesCoversFlow) {
  const trace::CaseRecord rec = make_record(6, 3, 6);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(11);
  const EventResult r = simulator.run(rec, core::Strategy::kRaFirst, flow(),
                                      rng, /*record_series=*/true);
  double total = 0.0;
  for (const auto& [tput, dur] : r.tput_segments) total += dur;
  EXPECT_NEAR(total, 1000.0, 1e-6);
}

TEST(EventSim, UpProbingRecoversHigherMcsAfterBa) {
  // After BA the new pair supports MCS 8, but RA-after-BA settles at the
  // initial MCS 4; the periodic upward probes climb the rest during a long
  // flow, so bytes beat a no-up-probe baseline of tput(4).
  const trace::CaseRecord rec = make_record(4, -1, 8);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(12);
  const EventResult r = simulator.run(rec, core::Strategy::kBaFirst,
                                      flow(3000.0), rng);
  EXPECT_GT(r.settled_mcs, 4);
  const double floor_bytes = tput_of(rec.new_best, 4) * 3000.0 / 8000.0;
  EXPECT_GT(r.bytes_mb, floor_bytes);
}

// ---------- property sweeps across strategies and configurations ----------

struct StrategyCase {
  core::Strategy strategy;
  double fat_ms;
  double ba_ms;
};

class StrategySweep : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategySweep, InvariantsHoldOnEveryRecordShape) {
  const auto [strategy, fat, ba] = GetParam();
  // LiBRA needs a classifier; the sweep covers the other four strategies.
  const EventSimulator simulator = simulator_at(fat, ba);
  for (int init : {4, 6, 8}) {
    for (int after_ra : {-1, 2, init}) {
      for (int after_ba : {-1, 3, init}) {
        const trace::CaseRecord rec = make_record(init, after_ra, after_ba);
        util::Rng rng(99);
        const EventResult r =
            simulator.run(rec, strategy, flow(), rng);
        // Bytes are bounded by a full flow at the best possible rate.
        const double cap = 4750.0 * 0.92 * 1000.0 / 8000.0;
        EXPECT_GE(r.bytes_mb, 0.0);
        EXPECT_LE(r.bytes_mb, cap + 1e-6);
        // Delay is within [0, flow].
        EXPECT_GE(r.recovery_delay_ms, 0.0);
        EXPECT_LE(r.recovery_delay_ms, 1000.0 + 1e-9);
        // A working new-best pair guarantees restoration for every strategy
        // (each falls back to BA eventually). Note after_ba >= after_ra in
        // any physically collected record (the sweep picks the max-SNR
        // pair), so after_ba = -1 with a working stale pair only exists in
        // synthetic inputs; no restoration promise is made there for
        // BA-first-style paths.
        if (after_ba >= 0) {
          EXPECT_TRUE(r.link_restored)
              << "init=" << init << " ra=" << after_ra << " ba=" << after_ba;
        }
        // Settled MCS is a valid index.
        EXPECT_GE(r.settled_mcs, 0);
        EXPECT_LE(r.settled_mcs, 8);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndConfigs, StrategySweep,
    ::testing::Values(
        StrategyCase{core::Strategy::kRaFirst, 2.0, 0.5},
        StrategyCase{core::Strategy::kRaFirst, 10.0, 250.0},
        StrategyCase{core::Strategy::kBaFirst, 2.0, 0.5},
        StrategyCase{core::Strategy::kBaFirst, 10.0, 250.0},
        StrategyCase{core::Strategy::kOracleData, 2.0, 5.0},
        StrategyCase{core::Strategy::kOracleData, 10.0, 150.0},
        StrategyCase{core::Strategy::kOracleDelay, 2.0, 5.0},
        StrategyCase{core::Strategy::kOracleDelay, 10.0, 150.0}));

class FlowLengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(FlowLengthSweep, BytesMonotoneInFlowLength) {
  const double ms = GetParam();
  const trace::CaseRecord rec = make_record(6, 3, 6);
  const EventSimulator simulator = simulator_at();
  util::Rng rng(7);
  const double shorter =
      simulator.run(rec, core::Strategy::kBaFirst, flow(ms), rng).bytes_mb;
  const double longer =
      simulator.run(rec, core::Strategy::kBaFirst, flow(ms + 500), rng)
          .bytes_mb;
  EXPECT_GT(longer, shorter);
}

INSTANTIATE_TEST_SUITE_P(Flows, FlowLengthSweep,
                         ::testing::Values(200.0, 400.0, 1000.0, 2000.0));

// ---------- timelines ----------

trace::Dataset pool_dataset() {
  trace::Dataset ds;
  for (int i = 0; i < 5; ++i) {
    ds.records.push_back(make_record(6, 3, 6, trace::Impairment::kDisplacement));
    ds.records.push_back(make_record(6, -1, 5, trace::Impairment::kBlockage));
    ds.records.push_back(make_record(6, 5, 5, trace::Impairment::kInterference));
  }
  return ds;
}

TEST(Timeline, PoolsSplitByImpairment) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools pools = RecordPools::from_dataset(ds);
  EXPECT_EQ(pools.displacement.size(), 5u);
  EXPECT_EQ(pools.blockage.size(), 5u);
  EXPECT_EQ(pools.interference.size(), 5u);
}

TEST(Timeline, MotionTimelineAllImpaired) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools pools = RecordPools::from_dataset(ds);
  util::Rng rng(1);
  const auto timeline = make_timeline(ScenarioType::kMotion, pools, rng);
  ASSERT_EQ(timeline.size(), 10u);
  for (const auto& seg : timeline) {
    EXPECT_TRUE(seg.impaired);
    EXPECT_EQ(seg.record->impairment, trace::Impairment::kDisplacement);
    EXPECT_GE(seg.duration_ms, 300.0);
    EXPECT_LE(seg.duration_ms, 3000.0);
  }
}

TEST(Timeline, BlockageTimelineAlternates) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools pools = RecordPools::from_dataset(ds);
  util::Rng rng(2);
  const auto timeline = make_timeline(ScenarioType::kBlockage, pools, rng);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].impaired, i % 2 == 0);
  }
}

TEST(Timeline, MixedDrawsFromAllPools) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools pools = RecordPools::from_dataset(ds);
  util::Rng rng(3);
  std::set<trace::Impairment> seen;
  for (int i = 0; i < 20; ++i) {
    for (const auto& seg : make_timeline(ScenarioType::kMixed, pools, rng)) {
      if (seg.impaired) seen.insert(seg.record->impairment);
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Timeline, EmptyPoolThrows) {
  RecordPools pools;  // all empty
  util::Rng rng(4);
  EXPECT_THROW(make_timeline(ScenarioType::kMotion, pools, rng),
               std::invalid_argument);
}

// The empty-pool guard must fire for EVERY pool a scenario can draw from
// (not just displacement) and must name the missing pool -- a
// blockage-only dataset failing a Mixed timeline is otherwise a puzzle.
TEST(Timeline, EmptyPoolThrowsPerScenarioAndNamesPool) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools full = RecordPools::from_dataset(ds);

  RecordPools no_blockage = full;
  no_blockage.blockage.clear();
  util::Rng rng(4);
  EXPECT_THROW(make_timeline(ScenarioType::kBlockage, no_blockage, rng),
               std::invalid_argument);
  try {
    make_timeline(ScenarioType::kBlockage, no_blockage, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blockage"), std::string::npos)
        << e.what();
  }

  RecordPools no_interference = full;
  no_interference.interference.clear();
  EXPECT_THROW(
      make_timeline(ScenarioType::kInterference, no_interference, rng),
      std::invalid_argument);

  // Mixed draws from all three pools, so any single empty pool eventually
  // trips the guard (five timelines make a miss astronomically unlikely).
  RecordPools no_displacement = full;
  no_displacement.displacement.clear();
  EXPECT_THROW(
      {
        for (int i = 0; i < 5; ++i) {
          make_timeline(ScenarioType::kMixed, no_displacement, rng);
        }
      },
      std::invalid_argument);
}

TEST(Timeline, RunAccumulatesBytesAndBreaks) {
  const trace::Dataset ds = pool_dataset();
  const RecordPools pools = RecordPools::from_dataset(ds);
  util::Rng rng(5);
  const auto timeline = make_timeline(ScenarioType::kMotion, pools, rng);
  const EventSimulator simulator = simulator_at();
  const TimelineResult r =
      run_timeline(timeline, core::Strategy::kRaFirst, simulator, rng);
  EXPECT_GT(r.bytes_mb, 0.0);
  EXPECT_EQ(r.link_breaks, 10);  // every motion segment breaks MCS 6
  EXPECT_GT(r.avg_recovery_delay_ms, 0.0);
}

TEST(Timeline, ClearSegmentsUseRecoveredTrace) {
  // Interference cases that keep the initial MCS working: no link breaks.
  trace::Dataset ds;
  for (int i = 0; i < 5; ++i) {
    ds.records.push_back(
        make_record(6, 6, 6, trace::Impairment::kInterference));
  }
  const RecordPools pools = RecordPools::from_dataset(ds);
  util::Rng rng(6);
  const auto timeline =
      make_timeline(ScenarioType::kInterference, pools, rng);
  const EventSimulator simulator = simulator_at();
  const TimelineResult r = run_timeline(
      timeline, core::Strategy::kRaFirst, simulator, rng);
  // Interference pool records stay working (after_ra = 5): no link breaks.
  EXPECT_EQ(r.link_breaks, 0);
  EXPECT_GT(r.bytes_mb, 0.0);
}

TEST(Timeline, ScenarioTypeNames) {
  EXPECT_EQ(to_string(ScenarioType::kMotion), "Motion");
  EXPECT_EQ(to_string(ScenarioType::kMixed), "Mixed");
  EXPECT_EQ(std::size(kAllScenarioTypes), 4u);
}

// ---------- VR ----------

TEST(Vr, FrameSizesMatchBitrate) {
  util::Rng rng(1);
  const auto frames = generate_frame_sizes_mb(10000.0, rng);
  EXPECT_EQ(frames.size(), 600u);  // 10 s at 60 FPS
  double total = 0.0;
  for (double f : frames) total += f;
  // Total MB over 10 s at 1200 Mbps = 1500 MB.
  EXPECT_NEAR(total, 1500.0, 1500.0 * 0.05);
}

TEST(Vr, IframesAreLarger) {
  util::Rng rng(2);
  const auto frames = generate_frame_sizes_mb(5000.0, rng);
  double iframe_avg = 0.0, pframe_avg = 0.0;
  int ni = 0, np = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % static_cast<std::size_t>(kVrGopFrames) == 0) {
      iframe_avg += frames[i];
      ++ni;
    } else {
      pframe_avg += frames[i];
      ++np;
    }
  }
  EXPECT_GT(iframe_avg / ni, 1.5 * pframe_avg / np);
}

TEST(Vr, FastLinkNeverStalls) {
  util::Rng rng(3);
  const auto frames = generate_frame_sizes_mb(5000.0, rng);
  // 10 Gbps link: far above demand.
  const std::vector<std::pair<double, double>> tput = {{10000.0, 6000.0}};
  const VrResult r = play_vr(frames, tput);
  EXPECT_EQ(r.stalls, 0);
  EXPECT_DOUBLE_EQ(r.total_stall_ms, 0.0);
}

TEST(Vr, OutageCausesOneStallThenRecovery) {
  util::Rng rng(4);
  const auto frames = generate_frame_sizes_mb(3000.0, rng);
  // Healthy, then a 200 ms outage, then healthy.
  const std::vector<std::pair<double, double>> tput = {
      {8000.0, 1000.0}, {0.0, 200.0}, {8000.0, 3000.0}};
  const VrResult r = play_vr(frames, tput);
  EXPECT_GE(r.stalls, 1);
  EXPECT_LE(r.stalls, 3);
  EXPECT_NEAR(r.total_stall_ms, 200.0, 60.0);
}

TEST(Vr, StarvedLinkStallsRepeatedly) {
  util::Rng rng(5);
  const auto frames = generate_frame_sizes_mb(2000.0, rng);
  // Link at half the demand after the COTS scaling: playback limps,
  // stalling again and again.
  const std::vector<std::pair<double, double>> tput = {
      {0.5 * kVrBitrateMbps / kVrCotsScale, 8000.0}};
  const VrResult r = play_vr(frames, tput);
  EXPECT_GT(r.stalls, 10);
  EXPECT_GT(r.avg_stall_ms, 0.0);
}

TEST(Vr, AvgStallIsTotalOverCount) {
  util::Rng rng(6);
  const auto frames = generate_frame_sizes_mb(2000.0, rng);
  const std::vector<std::pair<double, double>> tput = {{1500.0, 8000.0}};
  const VrResult r = play_vr(frames, tput);
  if (r.stalls > 0) {
    EXPECT_NEAR(r.avg_stall_ms, r.total_stall_ms / r.stalls, 1e-9);
  }
}

}  // namespace
}  // namespace libra::sim
