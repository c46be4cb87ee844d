#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>

#include "phy/error_model.h"
#include "test_helpers.h"
#include "trace/collector.h"
#include "trace/dataset.h"
#include "trace/features.h"
#include "trace/ground_truth.h"
#include "trace/scenario.h"

namespace libra::trace {
namespace {

using libra::testing::make_record;
using libra::testing::make_trace;

// ---------- scenarios ----------

TEST(Scenario, TrainingSetCoversAllImpairments) {
  const ScenarioSet set = training_scenarios();
  EXPECT_EQ(set.environments.size(), 6u);
  int disp = 0, blk = 0, ifr = 0;
  for (const Case& c : set.cases) {
    switch (c.impairment) {
      case Impairment::kDisplacement: ++disp; break;
      case Impairment::kBlockage: ++blk; break;
      case Impairment::kInterference: ++ifr; break;
    }
    EXPECT_GE(c.env_index, 0);
    EXPECT_LT(c.env_index, 6);
  }
  // Same order of magnitude and same ranking as Table 1.
  EXPECT_GT(disp, blk);
  EXPECT_GT(ifr, blk);
  EXPECT_GT(disp, 150);
  EXPECT_GE(blk, 60);
  EXPECT_GE(ifr, 90);
}

TEST(Scenario, TestingSetUsesTwoBuildings) {
  const ScenarioSet set = testing_scenarios();
  EXPECT_EQ(set.environments.size(), 2u);
  for (const Case& c : set.cases) {
    EXPECT_TRUE(c.env_name == "building1_corridor" ||
                c.env_name == "building2_open_area");
  }
}

TEST(Scenario, RotationCasesKeepPosition) {
  const ScenarioSet set = training_scenarios();
  int rotations = 0;
  for (const Case& c : set.cases) {
    if (c.impairment != Impairment::kDisplacement) continue;
    const bool same_pos =
        geom::distance(c.initial.rx.position, c.next.rx.position) < 1e-9;
    const bool rotated = std::abs(geom::wrap_angle_deg(
                             c.initial.rx.boresight_deg -
                             c.next.rx.boresight_deg)) > 1.0;
    if (same_pos && rotated) ++rotations;
  }
  // 12 rotation states per rotation spot, several spots (Sec. 4.2).
  EXPECT_GE(rotations, 100);
}

TEST(Scenario, RotationAnglesAre15DegreeSteps) {
  const ScenarioSet set = training_scenarios();
  for (const Case& c : set.cases) {
    if (c.impairment != Impairment::kDisplacement) continue;
    // Only pure rotations (same position); moves also change orientation
    // because the Rx keeps facing the Tx (or its original direction).
    if (geom::distance(c.initial.rx.position, c.next.rx.position) > 1e-9) {
      continue;
    }
    const double delta = std::abs(geom::wrap_angle_deg(
        c.next.rx.boresight_deg - c.initial.rx.boresight_deg));
    if (delta < 1.0) continue;
    const double steps = delta / 15.0;
    EXPECT_NEAR(steps, std::round(steps), 1e-9);
    EXPECT_LE(delta, 90.0 + 1e-9);
  }
}

TEST(Scenario, BlockageCasesHaveBlockersOnlyInNextState) {
  const ScenarioSet set = training_scenarios();
  for (const Case& c : set.cases) {
    if (c.impairment != Impairment::kBlockage) continue;
    EXPECT_TRUE(c.initial.blockers.empty());
    EXPECT_FALSE(c.next.blockers.empty());
    // Blocker sits between Tx and Rx.
    const geom::Segment los{c.tx.position, c.next.rx.position};
    EXPECT_LT(geom::point_segment_distance(c.next.blockers[0].position, los),
              0.5);
  }
}

TEST(Scenario, InterferenceCasesSpanThreeLevels) {
  const ScenarioSet set = training_scenarios();
  int low = 0, med = 0, high = 0;
  for (const Case& c : set.cases) {
    if (c.impairment != Impairment::kInterference) continue;
    ASSERT_TRUE(c.next.interference_level.has_value());
    ASSERT_TRUE(c.next.interferer_position.has_value());
    switch (*c.next.interference_level) {
      case InterferenceLevel::kLow: ++low; break;
      case InterferenceLevel::kMedium: ++med; break;
      case InterferenceLevel::kHigh: ++high; break;
    }
  }
  EXPECT_EQ(low, med);
  EXPECT_EQ(med, high);
}

TEST(Scenario, TargetDropFractions) {
  EXPECT_DOUBLE_EQ(target_drop_fraction(InterferenceLevel::kLow), 0.2);
  EXPECT_DOUBLE_EQ(target_drop_fraction(InterferenceLevel::kMedium), 0.5);
  EXPECT_DOUBLE_EQ(target_drop_fraction(InterferenceLevel::kHigh), 0.8);
}

TEST(Scenario, ToStringNames) {
  EXPECT_EQ(to_string(Impairment::kDisplacement), "displacement");
  EXPECT_EQ(to_string(Impairment::kBlockage), "blockage");
  EXPECT_EQ(to_string(Impairment::kInterference), "interference");
}

// ---------- PairTrace ----------

TEST(PairTrace, BestMcsIsHighestThroughputWorking) {
  const PairTrace t = make_trace(5);
  EXPECT_EQ(t.best_mcs(), 5);
}

TEST(PairTrace, BestMcsFallsBackWhenNothingWorks) {
  PairTrace t = make_trace(-1);
  t.throughput_mbps[2] = 10.0;  // best raw throughput but not "working"
  t.cdr[2] = 0.05;
  EXPECT_EQ(t.best_mcs(), 2);
}

// ---------- ground truth ----------

TEST(GroundTruth, RaWinsWhenInitialPairStillGood) {
  // After impairment: initial pair supports MCS 4, new best pair also 4.
  const CaseRecord rec = make_record(6, 4, 4);
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label, Action::kRA);
  EXPECT_DOUBLE_EQ(gt.th_ra_mbps, gt.th_ba_mbps);
}

TEST(GroundTruth, BaWinsWhenNewPairMuchBetter) {
  const CaseRecord rec = make_record(6, 0, 5);
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label, Action::kBA);
  EXPECT_GT(gt.th_ba_mbps, gt.th_ra_mbps);
}

TEST(GroundTruth, ThBaLimitedToInitialMcs) {
  // The new pair supports MCS 8 but RA-after-BA starts at the initial MCS 4
  // and only explores downward (Sec. 5.2 RA/BA subtleties).
  const CaseRecord rec = make_record(4, 2, 8);
  const GroundTruth gt = label_case(rec, {});
  const PairTrace ref = make_trace(8);
  EXPECT_DOUBLE_EQ(gt.th_ba_mbps, ref.throughput_mbps[4]);
}

TEST(GroundTruth, RaDelayCountsProbes) {
  GroundTruthConfig cfg;
  cfg.fat_ms = 10.0;
  // Initial MCS 6; first working on the initial pair is 4: probes 6,5,4.
  const CaseRecord rec = make_record(6, 4, 6);
  const GroundTruth gt = label_case(rec, cfg);
  EXPECT_DOUBLE_EQ(gt.delay_ra_ms, 3 * 10.0);
}

TEST(GroundTruth, BaDelayIncludesOverheadPlusRa) {
  GroundTruthConfig cfg;
  cfg.fat_ms = 10.0;
  cfg.ba_overhead_ms = 150.0;
  // After BA: new pair works at the initial MCS immediately (1 probe).
  const CaseRecord rec = make_record(6, -1, 6);
  const GroundTruth gt = label_case(rec, cfg);
  EXPECT_DOUBLE_EQ(gt.delay_ba_ms, 150.0 + 10.0);
}

TEST(GroundTruth, RaFailurePathPaysFullDisaster) {
  GroundTruthConfig cfg;
  cfg.fat_ms = 10.0;
  cfg.ba_overhead_ms = 5.0;
  // Nothing works on the initial pair: RA probes 7 MCSs (6..0), then BA,
  // then finds MCS 6 immediately on the new pair.
  const CaseRecord rec = make_record(6, -1, 6);
  const GroundTruth gt = label_case(rec, cfg);
  EXPECT_DOUBLE_EQ(gt.delay_ra_ms, 7 * 10.0 + 5.0 + 10.0);
  EXPECT_EQ(gt.label, Action::kBA);
}

TEST(GroundTruth, DelayClampedAtDmax) {
  GroundTruthConfig cfg;
  cfg.fat_ms = 10.0;
  cfg.ba_overhead_ms = 5.0;
  const CaseRecord rec = make_record(8, -1, -1);  // dead link everywhere
  const GroundTruth gt = label_case(rec, cfg);
  const double dmax = mac::worst_case_delay_ms(9, 10.0, 5.0);
  EXPECT_LE(gt.delay_ra_ms, dmax);
  EXPECT_LE(gt.delay_ba_ms, dmax);
}

TEST(GroundTruth, AlphaZeroPicksFasterMechanism) {
  GroundTruthConfig cfg;
  cfg.alpha = 0.0;  // delay only
  cfg.fat_ms = 10.0;
  cfg.ba_overhead_ms = 250.0;
  // RA restores in 1 probe (MCS 6 still works but BA pair is richer).
  const CaseRecord rec = make_record(6, 6, 6);
  const GroundTruth gt = label_case(rec, cfg);
  EXPECT_EQ(gt.label, Action::kRA);
  EXPECT_LT(gt.delay_ra_ms, gt.delay_ba_ms);
}

TEST(GroundTruth, TieGoesToRa) {
  const CaseRecord rec = make_record(5, 5, 5);
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label, Action::kRA);
}

TEST(GroundTruth, ThreeClassNaWhenStillWorking) {
  // The initial MCS still works at full throughput at the new state.
  const CaseRecord rec = make_record(5, 5, 5);
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label3, Action::kNA);
}

TEST(GroundTruth, ThreeClassFollows2ClassWhenDegraded) {
  const CaseRecord rec = make_record(6, 0, 5);
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label3, Action::kBA);
}

TEST(GroundTruth, ForcedNaOverrides) {
  CaseRecord rec = make_record(6, 0, 5);
  rec.forced_na = true;
  const GroundTruth gt = label_case(rec, {});
  EXPECT_EQ(gt.label3, Action::kNA);
}

TEST(GroundTruth, IsWorkingRule) {
  EXPECT_TRUE(is_working(0.5, 500.0));
  EXPECT_FALSE(is_working(0.05, 500.0));  // CDR too low
  EXPECT_FALSE(is_working(0.5, 100.0));   // throughput too low
}

// label_case() validates its parameterization, one field at a time: every
// listed bad value throws and every listed good value (the range
// boundaries) labels.
void expect_config_range(void (*set_field)(GroundTruthConfig&, double),
                         std::initializer_list<double> bad,
                         std::initializer_list<double> good) {
  const CaseRecord rec = make_record(6, 4, 6);
  for (const double v : bad) {
    GroundTruthConfig cfg;
    set_field(cfg, v);
    EXPECT_THROW(label_case(rec, cfg), std::invalid_argument) << v;
  }
  for (const double v : good) {
    GroundTruthConfig cfg;
    set_field(cfg, v);
    EXPECT_NO_THROW(label_case(rec, cfg)) << v;
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GroundTruthConfigValidation, Alpha) {
  expect_config_range([](GroundTruthConfig& c, double v) { c.alpha = v; },
                      {-0.1, 1.1, kNan}, {0.0, 1.0});
}

TEST(GroundTruthConfigValidation, FatMs) {
  // --fat 0 --ba 0 would make Dmax 0 and every utility NaN.
  expect_config_range([](GroundTruthConfig& c, double v) { c.fat_ms = v; },
                      {0.0, -10.0, kNan, kInf}, {2.0});
}

TEST(GroundTruthConfigValidation, BaOverheadMs) {
  expect_config_range(
      [](GroundTruthConfig& c, double v) { c.ba_overhead_ms = v; },
      {-0.5, kNan, kInf}, {0.0, 250.0});
}

TEST(GroundTruth, ActionToString) {
  EXPECT_EQ(to_string(Action::kRA), "RA");
  EXPECT_EQ(to_string(Action::kBA), "BA");
  EXPECT_EQ(to_string(Action::kNA), "NA");
}

// ---------- features ----------

TEST(Features, SnrDropSign) {
  CaseRecord rec = make_record(6, 3, 5);
  rec.init_best.snr_db = 20.0;
  rec.new_at_init_pair.snr_db = 12.0;
  const FeatureVector f = extract_features(rec);
  EXPECT_NEAR(f.snr_diff_db(), 8.0, 1e-9);
}

TEST(Features, TofDiffNegativeForBackwardMotion) {
  CaseRecord rec = make_record(6, 3, 5);
  rec.init_best.tof_ns = 20.0;
  rec.new_at_init_pair.tof_ns = 35.0;  // moved away: longer flight
  const FeatureVector f = extract_features(rec);
  EXPECT_NEAR(f.tof_diff_ns(), -15.0, 1e-9);
}

TEST(Features, TofInfinitySentinel) {
  CaseRecord rec = make_record(6, 3, 5);
  rec.new_at_init_pair.tof_ns = std::nullopt;
  const FeatureVector f = extract_features(rec);
  EXPECT_DOUBLE_EQ(f.tof_diff_ns(), kTofInfinity);
}

TEST(Features, NoiseRiseUnderInterference) {
  CaseRecord rec = make_record(6, 3, 5, Impairment::kInterference);
  rec.init_best.noise_dbm = -74.0;
  rec.new_at_init_pair.noise_dbm = -65.0;
  const FeatureVector f = extract_features(rec);
  EXPECT_NEAR(f.noise_diff_db(), 9.0, 1e-9);
}

TEST(Features, CdrAtInitialMcs) {
  CaseRecord rec = make_record(6, 3, 5);
  const FeatureVector f = extract_features(rec);
  EXPECT_DOUBLE_EQ(f.cdr(), rec.new_at_init_pair.cdr[6]);
  EXPECT_DOUBLE_EQ(f.initial_mcs(), 6.0);
}

TEST(Features, AlignedPdpSimilarityIsShiftInvariant) {
  // The same two-tap profile shifted by 7 taps: perfectly similar after
  // alignment (the receiver re-synchronizes).
  std::vector<double> a(64, 1e-12), b(64, 1e-12);
  a[10] = 1e-6;
  a[14] = 3e-7;
  b[17] = 1e-6;
  b[21] = 3e-7;
  EXPECT_NEAR(aligned_pdp_similarity(a, b), 1.0, 1e-6);
}

TEST(Features, AlignedPdpSimilarityDropsForDifferentStructure) {
  std::vector<double> a(64, 1e-12), b(64, 1e-12);
  a[10] = 1e-6;
  a[14] = 8e-7;
  b[10] = 1e-6;
  b[30] = 8e-7;  // second tap moved far away
  EXPECT_LT(aligned_pdp_similarity(a, b), 0.9);
}

TEST(Features, AlignedPdpSimilarityEdgeCases) {
  EXPECT_EQ(aligned_pdp_similarity({}, {1.0}), 0.0);
  std::vector<double> tail_peak(4, 0.0);
  tail_peak[3] = 1.0;
  EXPECT_EQ(aligned_pdp_similarity(tail_peak, tail_peak), 0.0);  // len < 2
}

TEST(Features, NamesMatchTable3Order) {
  EXPECT_EQ(FeatureVector::kNames[0], "SNR");
  EXPECT_EQ(FeatureVector::kNames[6], "InitialMCS");
  EXPECT_EQ(FeatureVector::kDim, 7);
}

TEST(Features, OutOfRangeInitMcsThrows) {
  CaseRecord rec = make_record(6, 3, 5);
  rec.init_mcs = static_cast<int>(rec.new_at_init_pair.cdr.size());
  EXPECT_THROW(extract_features(rec), std::invalid_argument);
  rec.init_mcs = -1;
  EXPECT_THROW(extract_features(rec), std::invalid_argument);
}

TEST(Features, MismatchedCdrThroughputThrows) {
  CaseRecord rec = make_record(6, 3, 5);
  rec.new_at_init_pair.throughput_mbps.pop_back();
  EXPECT_THROW(extract_features(rec), std::invalid_argument);
}

// ---------- dataset ----------

TEST(Dataset, LabeledMatchesRecords) {
  Dataset ds;
  ds.records.push_back(make_record(6, 4, 4));  // RA
  ds.records.push_back(make_record(6, 0, 5));  // BA
  const auto entries = ds.labeled({});
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].y, Action::kRA);
  EXPECT_EQ(entries[1].y, Action::kBA);
}

TEST(Dataset, Labeled3IncludesNaRecords) {
  Dataset ds;
  ds.records.push_back(make_record(6, 0, 5));
  CaseRecord na = make_record(5, 5, 5);
  na.forced_na = true;
  ds.na_records.push_back(na);
  const auto entries = ds.labeled3({});
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].y, Action::kNA);
}

TEST(Dataset, SummarizeCountsPerImpairment) {
  Dataset ds;
  ds.records.push_back(make_record(6, 4, 4, Impairment::kDisplacement));
  ds.records.push_back(make_record(6, 0, 5, Impairment::kDisplacement));
  ds.records.push_back(make_record(6, 0, 5, Impairment::kBlockage));
  ds.records.push_back(make_record(6, 4, 4, Impairment::kInterference));
  const DatasetSummary s = summarize(ds, {});
  EXPECT_EQ(s.displacement.total, 2);
  EXPECT_EQ(s.displacement.ba, 1);
  EXPECT_EQ(s.displacement.ra, 1);
  EXPECT_EQ(s.blockage.ba, 1);
  EXPECT_EQ(s.interference.ra, 1);
  EXPECT_EQ(s.overall.total, 4);
  // All synthetic records share one position id.
  EXPECT_EQ(s.overall.positions, 1);
}

// ---------- collection (small end-to-end) ----------

TEST(Collection, SingleCaseProducesConsistentRecord) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  ScenarioSet set = training_scenarios();
  set.cases.resize(5);
  const Dataset ds = collect_dataset(set, em, {});
  ASSERT_EQ(ds.records.size(), 5u);
  for (const CaseRecord& rec : ds.records) {
    EXPECT_EQ(rec.init_best.throughput_mbps.size(), 9u);
    EXPECT_EQ(rec.new_best.throughput_mbps.size(), 9u);
    EXPECT_GE(rec.init_mcs, 0);
    EXPECT_LE(rec.init_mcs, 8);
    // The initial state is a healthy link: its best MCS must be working.
    const auto i = (std::size_t)rec.init_mcs;
    EXPECT_GT(rec.init_best.cdr[i], 0.10);
    EXPECT_GT(rec.init_best.throughput_mbps[i], 150.0);
    // The new best pair is at least as good as the stale pair (it was
    // selected by an exhaustive sweep at the new state).
    EXPECT_GE(rec.new_best.snr_db + 1.5, rec.new_at_init_pair.snr_db);
  }
}

TEST(Collection, DeterministicUnderSeed) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  ScenarioSet set = training_scenarios();
  set.cases.resize(3);
  CollectOptions opt;
  opt.with_na_augmentation = false;
  const Dataset a = collect_dataset(set, em, opt);
  const Dataset b = collect_dataset(set, em, opt);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].init_best.snr_db,
                     b.records[i].init_best.snr_db);
    EXPECT_EQ(a.records[i].init_mcs, b.records[i].init_mcs);
  }
}

// frames_per_trace is checked at construction and named: it scales the
// averaged jitters, so a bad count would otherwise surface as a complaint
// about snr_jitter_db, a field the caller never set.
TEST(Collection, NonPositiveFramesPerTraceThrowsNamingIt) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  for (const int frames : {0, -4}) {
    SCOPED_TRACE("frames_per_trace " + std::to_string(frames));
    try {
      const TraceCollector collector(&em, CollectorConfig{frames});
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("frames_per_trace"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(TraceCollector(&em, CollectorConfig{1}));
}

TEST(Collection, InterferenceCalibrationHitsTargetDrop) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  // Find an interference case and verify the calibrated EIRP produces the
  // intended *burst* severity (bursts suppress nearly all throughput).
  ScenarioSet set = training_scenarios();
  std::vector<Case> interference_cases;
  for (const Case& c : set.cases) {
    if (c.impairment == Impairment::kInterference) {
      interference_cases.push_back(c);
      if (interference_cases.size() == 3) break;
    }
  }
  set.cases = interference_cases;
  CollectOptions opt;
  opt.with_na_augmentation = false;
  const Dataset ds = collect_dataset(set, em, opt);
  for (const CaseRecord& rec : ds.records) {
    const auto i = (std::size_t)rec.init_mcs;
    const double before = rec.init_best.throughput_mbps[i];
    const double after = rec.new_at_init_pair.throughput_mbps[i];
    // Low level = 20% duty: average drop ~20%.
    EXPECT_LT(after, before);
    EXPECT_GT(after, 0.0);
  }
}

TEST(Collection, MarksAngularDisplacementAndFailover) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  ScenarioSet set = training_scenarios();
  // Keep a rotation case (same position) and a move case.
  std::vector<Case> picked;
  for (const Case& c : set.cases) {
    if (c.impairment != Impairment::kDisplacement) continue;
    const bool rotation =
        geom::distance(c.initial.rx.position, c.next.rx.position) < 1e-9;
    if (rotation && picked.empty()) picked.push_back(c);
    if (!rotation && picked.size() == 1) {
      picked.push_back(c);
      break;
    }
  }
  ASSERT_EQ(picked.size(), 2u);
  set.cases = picked;
  CollectOptions opt;
  opt.with_na_augmentation = false;
  const Dataset ds = collect_dataset(set, em, opt);
  EXPECT_TRUE(ds.records[0].angular_displacement);
  EXPECT_FALSE(ds.records[1].angular_displacement);
  for (const CaseRecord& rec : ds.records) {
    // The failover pair is angularly diverse from the primary and weaker
    // (it was the constrained runner-up at the initial state).
    EXPECT_GE(std::abs(rec.init_failover.tx_beam - rec.init_best.tx_beam), 3);
    EXPECT_LE(rec.init_failover.snr_db, rec.init_best.snr_db + 1.0);
    EXPECT_EQ(rec.new_at_failover.tx_beam, rec.init_failover.tx_beam);
  }
}

TEST(Collection, NaRecordsAreStable) {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  ScenarioSet set = training_scenarios();
  set.cases.resize(4);
  CollectOptions opt;
  opt.with_na_augmentation = true;
  const Dataset ds = collect_dataset(set, em, opt);
  ASSERT_EQ(ds.na_records.size(), 4u);
  for (const CaseRecord& rec : ds.na_records) {
    EXPECT_TRUE(rec.forced_na);
    // Two windows of the same state: tiny SNR difference.
    EXPECT_LT(std::abs(rec.init_best.snr_db - rec.new_at_init_pair.snr_db),
              1.0);
  }
}

}  // namespace
}  // namespace libra::trace
