// End-to-end integration tests: the full pipeline from scenario generation
// through trace collection, labeling, model training, and trace-driven
// evaluation, on reduced-size inputs so the suite stays fast.
#include <gtest/gtest.h>

#include <memory>

#include "core/classifier.h"
#include "ml/cross_validation.h"
#include "ml/random_forest.h"
#include "phy/error_model.h"
#include "sim/event_sim.h"
#include "sim/timeline.h"
#include "trace/dataset.h"

namespace libra {
namespace {

// Shared across tests in this file; collected once.
struct Pipeline {
  phy::McsTable table;
  phy::ErrorModel em{&table};
  trace::Dataset training;
  trace::Dataset testing;

  Pipeline() {
    trace::CollectOptions opt;
    opt.with_na_augmentation = true;
    training = trace::collect_dataset(trace::training_scenarios(), em, opt);
    opt.seed = 77;
    testing = trace::collect_dataset(trace::testing_scenarios(), em, opt);
  }

  static const Pipeline& get() {
    static Pipeline p;
    return p;
  }
};

ml::DataSet to_ml(const std::vector<trace::LabeledEntry>& entries) {
  ml::DataSet d(trace::FeatureVector::kDim);
  for (const auto& e : entries) {
    d.add(e.x.v, e.y == trace::Action::kBA ? 0 : 1);
  }
  return d;
}

TEST(Integration, DatasetShapeMatchesPaper) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const auto s = trace::summarize(p.training, gt);
  // Table 1 shape: BA dominates displacement and blockage, RA dominates
  // interference, overall BA majority.
  EXPECT_GT(s.displacement.ba, s.displacement.ra);
  EXPECT_GT(s.blockage.ba, 3 * s.blockage.ra);
  EXPECT_GT(s.interference.ra, s.interference.ba);
  EXPECT_GT(s.overall.ba, s.overall.ra);
  EXPECT_GT(s.overall.total, 300);
}

TEST(Integration, TestingDatasetShape) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const auto s = trace::summarize(p.testing, gt);
  EXPECT_GT(s.overall.total, 100);
  EXPECT_GT(s.displacement.ba, s.displacement.ra);
  EXPECT_GT(s.interference.ra, s.interference.ba);
}

TEST(Integration, RandomForestLearnsTheTask) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const ml::DataSet train = to_ml(p.training.labeled(gt));
  util::Rng rng(1);
  const auto cv = ml::cross_validate(
      train, [] { return std::make_unique<ml::RandomForest>(); }, 5, 2, rng);
  EXPECT_GT(cv.accuracy, 0.82);  // paper: 98%, our simulated floor: >82%
}

TEST(Integration, CrossBuildingAccuracyDropsButStaysUseful) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const ml::DataSet train = to_ml(p.training.labeled(gt));
  const ml::DataSet test = to_ml(p.testing.labeled(gt));
  util::Rng rng(2);
  const auto xb = ml::train_test(
      train, test, [] { return std::make_unique<ml::RandomForest>(); }, rng);
  EXPECT_GT(xb.accuracy, 0.70);  // paper: 88%
}

TEST(Integration, GiniImportanceSpreadAcrossMetrics) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const ml::DataSet train = to_ml(p.training.labeled(gt));
  util::Rng rng(3);
  ml::RandomForest rf;
  rf.fit(train, rng);
  // Table 3's conclusion: no metric dominates, all contribute.
  for (double imp : rf.feature_importances()) {
    EXPECT_LT(imp, 0.6);
  }
  int contributing = 0;
  for (double imp : rf.feature_importances()) contributing += imp > 0.02;
  EXPECT_GE(contributing, 5);
}

TEST(Integration, LibraTracksOracleOnBytes) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  gt.alpha = 0.7;
  gt.fat_ms = 2.0;
  gt.ba_overhead_ms = 5.0;
  util::Rng rng(4);
  core::LibraClassifier clf;
  clf.train(p.training, gt, rng);
  const sim::EventSimulator simulator(&clf);
  sim::EventParams ep;
  ep.fat_ms = 2.0;
  ep.ba_overhead_ms = 5.0;

  double oracle = 0.0, libra = 0.0, ra_first = 0.0;
  for (const auto& rec : p.testing.records) {
    oracle += simulator.run(rec, core::Strategy::kOracleData, ep, rng).bytes_mb;
    libra += simulator.run(rec, core::Strategy::kLibra, ep, rng).bytes_mb;
    ra_first +=
        simulator.run(rec, core::Strategy::kRaFirst, ep, rng).bytes_mb;
  }
  // The paper's headline: LiBRA close to the oracle, clearly above RA First.
  EXPECT_GT(libra, 0.90 * oracle);
  EXPECT_GT(libra, ra_first);
}

TEST(Integration, BaFirstDelayExplodesAtHighOverhead) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  gt.alpha = 0.5;
  gt.ba_overhead_ms = 250.0;
  util::Rng rng(5);
  core::LibraClassifier clf;
  clf.train(p.training, gt, rng);
  const sim::EventSimulator simulator(&clf);
  sim::EventParams ep;
  ep.ba_overhead_ms = 250.0;

  double ba_first_delay = 0.0, libra_delay = 0.0;
  int broken = 0;
  for (const auto& rec : p.testing.records) {
    const auto b = simulator.run(rec, core::Strategy::kBaFirst, ep, rng);
    const auto l = simulator.run(rec, core::Strategy::kLibra, ep, rng);
    if (b.recovery_delay_ms > 0 || l.recovery_delay_ms > 0) {
      ++broken;
      ba_first_delay += b.recovery_delay_ms;
      libra_delay += l.recovery_delay_ms;
    }
  }
  ASSERT_GT(broken, 10);
  // With 250 ms sweeps, always-BA pays far more recovery delay than LiBRA.
  EXPECT_GT(ba_first_delay, 1.2 * libra_delay);
}

TEST(Integration, EvaluationIsDeterministic) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  const sim::EventSimulator simulator;
  sim::EventParams ep;
  const auto& rec = p.testing.records.front();
  util::Rng rng1(9), rng2(9);
  const auto a = simulator.run(rec, core::Strategy::kRaFirst, ep, rng1);
  const auto b = simulator.run(rec, core::Strategy::kRaFirst, ep, rng2);
  EXPECT_DOUBLE_EQ(a.bytes_mb, b.bytes_mb);
  EXPECT_DOUBLE_EQ(a.recovery_delay_ms, b.recovery_delay_ms);
}

TEST(Integration, ThreeClassModelUsableInController) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  util::Rng rng(6);
  core::LibraClassifier clf;
  clf.train(p.training, gt, rng);
  // Classify all testing entries; predictions must be one of the 3 classes
  // and mostly correct.
  int correct = 0, total = 0;
  for (const auto& e : p.testing.labeled3(gt)) {
    const trace::Action a = clf.classify(e.x, rng);
    correct += a == e.y;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.75);
}

TEST(Integration, TimelineEvaluationRuns) {
  const auto& p = Pipeline::get();
  trace::GroundTruthConfig gt;
  util::Rng rng(7);
  core::LibraClassifier clf;
  clf.train(p.training, gt, rng);
  const sim::EventSimulator simulator(&clf);
  sim::EventParams ep;
  const sim::RecordPools pools = sim::RecordPools::from_dataset(p.testing);
  for (sim::ScenarioType type : sim::kAllScenarioTypes) {
    util::Rng tl_rng(100);
    const auto timeline = sim::make_timeline(type, pools, tl_rng);
    const auto oracle = sim::run_timeline(
        timeline, core::Strategy::kOracleData, simulator, ep, rng);
    const auto libra = sim::run_timeline(timeline, core::Strategy::kLibra,
                                         simulator, ep, rng);
    EXPECT_GT(oracle.bytes_mb, 0.0);
    EXPECT_GE(oracle.bytes_mb + 1e-9, libra.bytes_mb * 0.0);  // sanity
    EXPECT_GT(libra.bytes_mb, 0.5 * oracle.bytes_mb);
  }
}

}  // namespace
}  // namespace libra
