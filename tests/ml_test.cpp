#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "ml/compiled_forest.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "util/stats.h"

namespace libra::ml {
namespace {

// Two well-separated Gaussian blobs (trivially separable).
DataSet blobs(int n_per_class, util::Rng& rng, double separation = 6.0) {
  DataSet d(2);
  for (int i = 0; i < n_per_class; ++i) {
    d.add(std::vector<double>{rng.gaussian(0, 1), rng.gaussian(0, 1)}, 0);
    d.add(std::vector<double>{rng.gaussian(separation, 1),
                              rng.gaussian(separation, 1)},
          1);
  }
  return d;
}

// XOR pattern: not linearly separable.
DataSet xor_data(int n_per_quadrant, util::Rng& rng) {
  DataSet d(2);
  for (int i = 0; i < n_per_quadrant; ++i) {
    for (int sx : {-1, 1}) {
      for (int sy : {-1, 1}) {
        const double x = sx * (1.0 + rng.uniform(0, 1));
        const double y = sy * (1.0 + rng.uniform(0, 1));
        d.add(std::vector<double>{x, y}, sx * sy > 0 ? 1 : 0);
      }
    }
  }
  return d;
}

double holdout_accuracy(Classifier& model, const DataSet& train,
                        const DataSet& test, util::Rng& rng) {
  model.fit(train, rng);
  return accuracy(test.labels(), model.predict_all(test));
}

// ---------- DataSet ----------

TEST(DataSet, AddAndAccess) {
  DataSet d(2);
  d.add(std::vector<double>{1.0, 2.0}, 0);
  d.add(std::vector<double>{3.0, 4.0}, 1);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_DOUBLE_EQ(d.row(1)[0], 3.0);
  EXPECT_EQ(d.label(1), 1);
  EXPECT_EQ(d.num_classes(), 2);
}

TEST(DataSet, InconsistentDimensionThrows) {
  DataSet d(2);
  d.add(std::vector<double>{1.0, 2.0}, 0);
  EXPECT_THROW(d.add(std::vector<double>{1.0}, 0), std::invalid_argument);
}

TEST(DataSet, Subset) {
  DataSet d(1);
  for (int i = 0; i < 5; ++i) d.add(std::vector<double>{double(i)}, i % 2);
  const std::vector<std::size_t> idx{0, 2, 4};
  const DataSet s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 2.0);
}

TEST(DataSet, ReserveDoesNotChangeContents) {
  DataSet d(3);
  d.reserve(100);
  EXPECT_TRUE(d.empty());
  for (int i = 0; i < 100; ++i) {
    d.add(std::vector<double>{double(i), double(i) + 0.5, -double(i)}, i % 3);
  }
  EXPECT_EQ(d.size(), 100u);
  EXPECT_DOUBLE_EQ(d.row(42)[1], 42.5);
  EXPECT_EQ(d.label(99), 0);
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  DataSet d(2);
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    d.add(std::vector<double>{rng.gaussian(5, 3), rng.gaussian(-2, 0.5)}, 0);
  }
  Standardizer s;
  s.fit(d);
  const DataSet z = s.transform(d);
  util::RunningStats col0, col1;
  for (std::size_t i = 0; i < z.size(); ++i) {
    col0.add(z.row(i)[0]);
    col1.add(z.row(i)[1]);
  }
  EXPECT_NEAR(col0.mean(), 0.0, 1e-9);
  // Standardizer normalizes by the population stddev; RunningStats reports
  // the sample stddev, hence the sqrt(n/(n-1)) Bessel factor.
  EXPECT_NEAR(col0.stddev(), std::sqrt(500.0 / 499.0), 1e-9);
  EXPECT_NEAR(col1.mean(), 0.0, 1e-9);
}

TEST(Standardizer, ConstantFeatureSafe) {
  DataSet d(1);
  d.add(std::vector<double>{7.0}, 0);
  d.add(std::vector<double>{7.0}, 1);
  Standardizer s;
  s.fit(d);
  const auto z = s.transform_row(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(z[0], 0.0);
}

TEST(StratifiedKfold, PreservesClassBalance) {
  DataSet d(1);
  for (int i = 0; i < 100; ++i) d.add(std::vector<double>{double(i)}, 0);
  for (int i = 0; i < 20; ++i) d.add(std::vector<double>{double(i)}, 1);
  util::Rng rng(3);
  const auto splits = stratified_kfold(d, 5, rng);
  ASSERT_EQ(splits.size(), 5u);
  for (const FoldSplit& split : splits) {
    EXPECT_EQ(split.train.size() + split.test.size(), 120u);
    int test_minority = 0;
    for (std::size_t i : split.test) test_minority += d.label(i) == 1;
    EXPECT_EQ(test_minority, 4);  // 20 / 5 folds
  }
}

TEST(StratifiedKfold, FoldsPartitionData) {
  DataSet d(1);
  for (int i = 0; i < 30; ++i) d.add(std::vector<double>{double(i)}, i % 3);
  util::Rng rng(3);
  const auto splits = stratified_kfold(d, 3, rng);
  std::vector<int> seen(30, 0);
  for (const auto& split : splits) {
    for (std::size_t i : split.test) ++seen[i];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(StratifiedKfold, InvalidKThrows) {
  DataSet d(1);
  d.add(std::vector<double>{0.0}, 0);
  util::Rng rng(1);
  EXPECT_THROW(stratified_kfold(d, 1, rng), std::invalid_argument);
}

// ---------- decision tree ----------

TEST(DecisionTree, SeparableBlobsPerfect) {
  util::Rng rng(1);
  const DataSet train = blobs(100, rng);
  const DataSet test = blobs(50, rng);
  DecisionTree dt;
  EXPECT_GT(holdout_accuracy(dt, train, test, rng), 0.95);
}

TEST(DecisionTree, SolvesXor) {
  util::Rng rng(2);
  const DataSet train = xor_data(50, rng);
  const DataSet test = xor_data(25, rng);
  DecisionTree dt;
  EXPECT_GT(holdout_accuracy(dt, train, test, rng), 0.95);
}

TEST(DecisionTree, DepthCapRespected) {
  util::Rng rng(3);
  const DataSet train = xor_data(50, rng);
  DecisionTreeConfig cfg;
  cfg.max_depth = 2;
  DecisionTree dt(cfg);
  dt.fit(train, rng);
  EXPECT_LE(dt.depth(), 3);  // root + 2 levels
}

TEST(DecisionTree, EntropyImpurityAlsoWorks) {
  util::Rng rng(4);
  const DataSet train = blobs(100, rng);
  const DataSet test = blobs(50, rng);
  DecisionTreeConfig cfg;
  cfg.impurity = Impurity::kEntropy;
  DecisionTree dt(cfg);
  EXPECT_GT(holdout_accuracy(dt, train, test, rng), 0.98);
}

TEST(DecisionTree, ImportancesSumToOne) {
  util::Rng rng(5);
  const DataSet train = xor_data(50, rng);
  DecisionTree dt;
  dt.fit(train, rng);
  double sum = 0.0;
  for (double i : dt.feature_importances()) sum += i;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DecisionTree, IrrelevantFeatureGetsLowImportance) {
  util::Rng rng(6);
  DataSet d(2);
  for (int i = 0; i < 400; ++i) {
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    // Feature 0 decides the class; feature 1 is pure noise.
    d.add(std::vector<double>{y * 4.0 + rng.gaussian(0, 0.5),
                              rng.gaussian(0, 1)},
          y);
  }
  DecisionTree dt;
  dt.fit(d, rng);
  EXPECT_GT(dt.feature_importances()[0], 0.9);
  EXPECT_LT(dt.feature_importances()[1], 0.1);
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  DataSet d(1);
  for (int i = 0; i < 10; ++i) d.add(std::vector<double>{double(i)}, 0);
  util::Rng rng(7);
  DecisionTree dt;
  dt.fit(d, rng);
  EXPECT_EQ(dt.node_count(), 1);
  EXPECT_EQ(dt.predict(std::vector<double>{3.0}), 0);
}

TEST(DecisionTree, PredictBeforeFitReturnsDefault) {
  DecisionTree dt;
  EXPECT_EQ(dt.predict(std::vector<double>{0.0}), 0);
}

TEST(DecisionTree, MulticlassSupport) {
  util::Rng rng(8);
  DataSet d(1);
  for (int i = 0; i < 300; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 3.0 + rng.gaussian(0, 0.4)}, y);
  }
  DecisionTree dt;
  dt.fit(d, rng);
  EXPECT_EQ(dt.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(dt.predict(std::vector<double>{3.0}), 1);
  EXPECT_EQ(dt.predict(std::vector<double>{6.0}), 2);
}

// ---------- random forest ----------

TEST(RandomForest, BeatsOrMatchesSingleTreeOnNoisyData) {
  util::Rng rng(9);
  DataSet train(4), test(4);
  auto gen = [&](DataSet& d, int n) {
    for (int i = 0; i < n; ++i) {
      const int y = rng.bernoulli(0.5) ? 1 : 0;
      // Weak signal spread over several features + noise.
      std::vector<double> x(4);
      for (auto& v : x) v = y * 0.8 + rng.gaussian(0, 1.0);
      d.add(x, y);
    }
  };
  gen(train, 400);
  gen(test, 400);
  DecisionTree dt;
  RandomForest rf;
  const double acc_dt = holdout_accuracy(dt, train, test, rng);
  const double acc_rf = holdout_accuracy(rf, train, test, rng);
  EXPECT_GE(acc_rf + 0.02, acc_dt);
  EXPECT_GT(acc_rf, 0.7);
}

TEST(RandomForest, ImportancesNormalized) {
  util::Rng rng(10);
  const DataSet train = xor_data(50, rng);
  RandomForest rf;
  rf.fit(train, rng);
  double sum = 0.0;
  for (double i : rf.feature_importances()) sum += i;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(rf.trees().size(), 60u);
}

TEST(RandomForest, ConfigurableTreeCount) {
  RandomForestConfig cfg;
  cfg.num_trees = 7;
  RandomForest rf(cfg);
  util::Rng rng(11);
  rf.fit(blobs(30, rng), rng);
  EXPECT_EQ(rf.trees().size(), 7u);
}

TEST(RandomForest, ParallelFitBitIdenticalToSerial) {
  // The same seed must yield the same forest whether trees are trained on
  // one thread or four: each tree consumes only its own forked stream.
  util::Rng data_rng(30);
  const DataSet train = xor_data(60, data_rng);
  const DataSet test = xor_data(40, data_rng);

  RandomForestConfig serial_cfg;
  serial_cfg.num_threads = 1;
  RandomForestConfig parallel_cfg;
  parallel_cfg.num_threads = 4;

  RandomForest serial(serial_cfg), parallel(parallel_cfg);
  util::Rng r1(31), r2(31);
  serial.fit(train, r1);
  parallel.fit(train, r2);

  EXPECT_EQ(serial.feature_importances(), parallel.feature_importances());
  EXPECT_EQ(serial.predict_batch(test), parallel.predict_batch(test));
  ASSERT_EQ(serial.trees().size(), parallel.trees().size());
  for (std::size_t t = 0; t < serial.trees().size(); ++t) {
    EXPECT_EQ(serial.trees()[t].node_count(), parallel.trees()[t].node_count());
  }
}

TEST(RandomForest, FitOnEmptySetThrows) {
  RandomForest rf;
  DataSet empty(3);
  util::Rng rng(1);
  EXPECT_THROW(rf.fit(empty, rng), std::invalid_argument);
}

TEST(RandomForest, PredictOnUnfittedForestThrows) {
  const RandomForest rf;
  EXPECT_THROW(rf.predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(RandomForest, VoteFractionsOnUnfittedForestAreZero) {
  const RandomForest rf;
  const auto votes = rf.vote_fractions(std::vector<double>{0.0});
  for (double v : votes) EXPECT_EQ(v, 0.0);
}

TEST(RandomForest, PredictBatchMatchesPredict) {
  util::Rng rng(32);
  const DataSet train = blobs(40, rng);
  RandomForestConfig cfg;
  cfg.num_threads = 4;
  RandomForest rf(cfg);
  rf.fit(train, rng);
  const std::vector<Label> batch = rf.predict_batch(train);
  ASSERT_EQ(batch.size(), train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(batch[i], rf.predict(train.row(i)));
  }
}

TEST(RandomForest, MajorityVoteMulticlass) {
  util::Rng rng(12);
  DataSet d(1);
  for (int i = 0; i < 300; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 3.0 + rng.gaussian(0, 0.4)}, y);
  }
  RandomForest rf;
  rf.fit(d, rng);
  EXPECT_EQ(rf.predict(std::vector<double>{6.0}), 2);
}

// ---------- compiled forest ----------

// Three separable 1-D clusters (the 3-class shape LiBRA deploys).
DataSet three_class(int n, util::Rng& rng) {
  DataSet d(1);
  for (int i = 0; i < n; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 3.0 + rng.gaussian(0, 0.6)}, y);
  }
  return d;
}

// The compiled arena must reproduce the pointer walk bit for bit: same
// labels, same vote fractions, single-row and batch.
void expect_compiled_matches_interpreted(const RandomForest& interpreted,
                                         const CompiledForest& compiled,
                                         const DataSet& test) {
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(compiled.predict(test.row(i)), interpreted.predict(test.row(i)))
        << "row " << i;
    EXPECT_EQ(compiled.vote_fractions(test.row(i)),
              interpreted.vote_fractions(test.row(i)))
        << "row " << i;
  }
  EXPECT_EQ(compiled.predict_batch(test), interpreted.predict_batch(test));
  EXPECT_EQ(compiled.vote_fractions_batch(test),
            interpreted.vote_fractions_batch(test));
}

TEST(CompiledForest, BitIdenticalTwoClass) {
  util::Rng rng(40);
  const DataSet train = xor_data(60, rng);
  const DataSet test = xor_data(40, rng);
  RandomForestConfig cfg;
  cfg.num_trees = 15;
  RandomForest rf(cfg);
  rf.fit(train, rng);
  const CompiledForest compiled(rf);
  EXPECT_EQ(compiled.num_trees(), 15);
  EXPECT_EQ(compiled.num_classes(), rf.num_classes());
  EXPECT_GT(compiled.arena_bytes(), 0u);
  expect_compiled_matches_interpreted(rf, compiled, test);
}

TEST(CompiledForest, BitIdenticalThreeClass) {
  util::Rng rng(41);
  const DataSet train = three_class(240, rng);
  const DataSet test = three_class(120, rng);
  RandomForestConfig cfg;
  cfg.num_trees = 25;
  RandomForest rf(cfg);
  rf.fit(train, rng);
  const CompiledForest compiled(rf);
  EXPECT_EQ(compiled.num_classes(), 3);
  expect_compiled_matches_interpreted(rf, compiled, test);
}

TEST(CompiledForest, BitIdenticalAfterModelIoRoundTrip) {
  util::Rng rng(42);
  const DataSet train = three_class(200, rng);
  const DataSet test = three_class(100, rng);
  RandomForestConfig cfg;
  cfg.num_trees = 12;
  RandomForest rf(cfg);
  rf.fit(train, rng);

  std::stringstream io;
  save_forest(rf, io);
  RandomForest loaded = load_forest(io);
  const CompiledForest compiled(loaded);
  // Serialization quantizes nothing (max_digits10 text round-trip), so the
  // compiled round-tripped forest must still match the in-memory walk.
  expect_compiled_matches_interpreted(rf, compiled, test);
}

TEST(CompiledForest, RowBlockedPoolMatchesSerial) {
  util::Rng rng(43);
  const DataSet train = xor_data(80, rng);
  // Several full row blocks plus a partial one.
  const DataSet test =
      xor_data(static_cast<int>(5 * CompiledForest::kRowBlock / 4 + 3), rng);
  ASSERT_GT(test.size(), 4 * CompiledForest::kRowBlock);
  RandomForest rf;
  rf.fit(train, rng);
  const CompiledForest compiled(rf);
  util::ThreadPool pool(4);
  EXPECT_EQ(compiled.vote_fractions_batch(test, &pool),
            compiled.vote_fractions_batch(test, nullptr));
  EXPECT_EQ(compiled.predict_batch(test, &pool),
            compiled.predict_batch(test, nullptr));
  EXPECT_EQ(compiled.vote_fractions_batch(test, &pool),
            rf.vote_fractions_batch(test));
}

TEST(CompiledForest, CompileUnfittedThrows) {
  RandomForest rf;
  EXPECT_THROW(CompiledForest{rf}, std::invalid_argument);
}

// The batch walk interleaves rows in groups of 8 and cuts batches into
// kRowBlock-row blocks; every batch shape -- group remainders, single
// rows, block boundaries -- must reproduce the pointer walk exactly.
TEST(CompiledForest, BatchShapesMatchPointerWalk) {
  util::Rng rng(51);
  const DataSet train = blobs(100, rng);
  RandomForest rf;
  rf.fit(train, rng);
  const CompiledForest compiled(rf);
  const int block = static_cast<int>(CompiledForest::kRowBlock);
  for (const int rows : {1, 3, 7, 8, 9, 31, 32, 33, block - 1, block,
                         block + 1}) {
    DataSet batch(2);
    for (int i = 0; i < rows; ++i) {
      const auto k = static_cast<std::size_t>(i) % train.size();
      batch.add(train.row(k), train.label(k));
    }
    EXPECT_EQ(compiled.vote_fractions_batch(batch),
              rf.vote_fractions_batch(batch))
        << "rows=" << rows;
  }
}

// Non-finite feature values must take the pointer walk's branches: NaN
// fails <= and goes right, -inf goes left, +inf goes right -- in the
// interleaved batch walk and the single-row walk alike.
TEST(CompiledForest, NonFiniteRowsMatchPointerWalk) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(52);
  const DataSet train = blobs(80, rng);
  RandomForest rf;
  rf.fit(train, rng);
  DataSet batch(2);
  batch.add(std::vector<double>{kNaN, 10.0}, 0);
  batch.add(std::vector<double>{kInf, -kInf}, 0);
  batch.add(std::vector<double>{10.0, kNaN}, 0);
  batch.add(std::vector<double>{-kInf, kNaN}, 0);
  for (int i = 0; batch.size() < 24; ++i) {  // fill full row groups
    batch.add(train.row(static_cast<std::size_t>(i)),
              train.label(static_cast<std::size_t>(i)));
  }
  const CompiledForest compiled(rf);
  const std::vector<Label> batched = compiled.predict_batch(batch);
  EXPECT_EQ(batched, rf.predict_batch(batch));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i], compiled.predict(batch.row(i))) << "row=" << i;
  }
  EXPECT_EQ(compiled.vote_fractions_batch(batch),
            rf.vote_fractions_batch(batch));
}

// ---------- model import validation ----------

TEST(ImportModel, ChildIndexOutOfRangeThrows) {
  std::vector<DecisionTree::Node> nodes(2);
  nodes[0].feature = 0;
  nodes[0].left = 1;
  nodes[0].right = 7;  // out of range
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
  nodes[0].right = -3;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
}

TEST(ImportModel, CycleThrows) {
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].feature = 0;
  nodes[1].left = 0;  // back edge to the root
  nodes[1].right = 2;
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
}

TEST(ImportModel, SharedSubtreeThrows) {
  std::vector<DecisionTree::Node> nodes(2);
  nodes[0].feature = 0;
  nodes[0].left = 1;
  nodes[0].right = 1;  // both children alias one leaf
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
}

TEST(ImportModel, UnreachableNodeThrows) {
  std::vector<DecisionTree::Node> nodes(2);  // root is a leaf, node 1 orphaned
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
}

TEST(ImportModel, LabelOutsideNumClassesThrows) {
  std::vector<DecisionTree::Node> nodes(1);
  nodes[0].label = 2;
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {1.0}, 2), std::invalid_argument);
}

TEST(ImportModel, FeatureBeyondImportancesThrows) {
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 5;  // model only has 2 features
  nodes[0].left = 1;
  nodes[0].right = 2;
  DecisionTree tree;
  EXPECT_THROW(tree.import_model(nodes, {0.5, 0.5}, 2),
               std::invalid_argument);
}

TEST(ImportModel, ValidTreeAccepted) {
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[2].label = 1;
  DecisionTree tree;
  tree.import_model(nodes, {1.0}, 2);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 1);
}

TEST(ImportModel, ForestClassCountMismatchThrows) {
  util::Rng rng(48);
  const DataSet train = three_class(150, rng);
  DecisionTree tree;
  tree.fit(train, rng);  // a 3-class tree
  std::vector<DecisionTree> trees{tree};
  RandomForest forest;
  EXPECT_THROW(
      forest.import_model(trees, std::vector<double>(train.num_features()), 2),
      std::invalid_argument);
}

TEST(ImportModel, ForestImportanceSizeMismatchThrows) {
  util::Rng rng(49);
  const DataSet train = blobs(40, rng);  // 2 features
  DecisionTree tree;
  tree.fit(train, rng);
  std::vector<DecisionTree> trees{tree};
  RandomForest forest;
  EXPECT_THROW(forest.import_model(trees, {1.0, 0.0, 0.0}, 2),
               std::invalid_argument);
}

TEST(ImportModel, TamperedSerializedForestThrows) {
  util::Rng rng(50);
  const DataSet train = blobs(40, rng);
  RandomForestConfig cfg;
  cfg.num_trees = 3;
  RandomForest rf(cfg);
  rf.fit(train, rng);
  std::stringstream out;
  save_forest(rf, out);
  // Point the first internal node's left child out of range.
  std::string text = out.str();
  const std::string needle = "libra-tree-v1";
  const std::size_t tree_pos = text.find(needle);
  ASSERT_NE(tree_pos, std::string::npos);
  const std::size_t line_end = text.find('\n', tree_pos);
  std::size_t node_start = line_end + 1;
  // Walk node lines until an internal one (feature >= 0), then corrupt it.
  bool corrupted = false;
  while (!corrupted) {
    const std::size_t node_end = text.find('\n', node_start);
    ASSERT_NE(node_end, std::string::npos);
    std::istringstream line(text.substr(node_start, node_end - node_start));
    int feature, left, right, label;
    double threshold;
    ASSERT_TRUE(
        static_cast<bool>(line >> feature >> threshold >> left >> right >>
                          label));
    if (feature >= 0) {
      std::ostringstream bad;
      bad << feature << ' ' << threshold << ' ' << 999999 << ' ' << right
          << ' ' << label;
      text.replace(node_start, node_end - node_start, bad.str());
      corrupted = true;
    } else {
      node_start = node_end + 1;
    }
  }
  std::istringstream in(text);
  EXPECT_THROW(load_forest(in), std::invalid_argument);
}

// ---------- SVM ----------

TEST(Svm, LinearKernelOnSeparableBlobs) {
  util::Rng rng(13);
  const DataSet train = blobs(80, rng);
  const DataSet test = blobs(40, rng);
  SvmConfig cfg;
  cfg.kernel = Kernel::kLinear;
  Svm svm(cfg);
  EXPECT_GT(holdout_accuracy(svm, train, test, rng), 0.97);
}

TEST(Svm, RbfKernelSolvesXor) {
  util::Rng rng(14);
  const DataSet train = xor_data(60, rng);
  const DataSet test = xor_data(30, rng);
  Svm svm;
  EXPECT_GT(holdout_accuracy(svm, train, test, rng), 0.9);
}

TEST(Svm, LinearKernelFailsXor) {
  util::Rng rng(15);
  const DataSet train = xor_data(60, rng);
  const DataSet test = xor_data(30, rng);
  SvmConfig cfg;
  cfg.kernel = Kernel::kLinear;
  Svm svm(cfg);
  EXPECT_LT(holdout_accuracy(svm, train, test, rng), 0.75);
}

TEST(Svm, MulticlassOneVsRest) {
  util::Rng rng(16);
  DataSet d(2);
  for (int i = 0; i < 200; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 5.0 + rng.gaussian(0, 0.5),
                              rng.gaussian(0, 0.5)},
          y);
  }
  Svm svm;
  svm.fit(d, rng);
  EXPECT_EQ(svm.predict(std::vector<double>{0.0, 0.0}), 0);
  EXPECT_EQ(svm.predict(std::vector<double>{5.0, 0.0}), 1);
  EXPECT_EQ(svm.predict(std::vector<double>{10.0, 0.0}), 2);
}

TEST(BinarySvm, BadInputThrows) {
  BinarySvm svm;
  DataSet empty(2);
  util::Rng rng(1);
  EXPECT_THROW(svm.fit(empty, {}, rng), std::invalid_argument);
}

// ---------- neural net ----------

TEST(NeuralNet, SolvesBlobs) {
  util::Rng rng(17);
  const DataSet train = blobs(80, rng);
  const DataSet test = blobs(40, rng);
  NeuralNetConfig cfg;
  cfg.epochs = 80;
  NeuralNet nn(cfg);
  EXPECT_GT(holdout_accuracy(nn, train, test, rng), 0.97);
}

TEST(NeuralNet, SolvesXor) {
  util::Rng rng(18);
  const DataSet train = xor_data(80, rng);
  const DataSet test = xor_data(40, rng);
  NeuralNetConfig cfg;
  cfg.epochs = 250;
  cfg.dropout = 0.05;
  NeuralNet nn(cfg);
  EXPECT_GT(holdout_accuracy(nn, train, test, rng), 0.9);
}

TEST(NeuralNet, ProbabilitiesSumToOne) {
  util::Rng rng(19);
  const DataSet train = blobs(50, rng);
  NeuralNetConfig cfg;
  cfg.epochs = 20;
  NeuralNet nn(cfg);
  nn.fit(train, rng);
  const auto p = nn.predict_proba(train.row(0));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_GE(p[0], 0.0);
  EXPECT_GE(p[1], 0.0);
}

TEST(NeuralNet, MulticlassSoftmax) {
  util::Rng rng(20);
  DataSet d(1);
  for (int i = 0; i < 400; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y * 4.0 + rng.gaussian(0, 0.4)}, y);
  }
  NeuralNetConfig cfg;
  cfg.epochs = 120;
  NeuralNet nn(cfg);
  nn.fit(d, rng);
  EXPECT_EQ(nn.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(nn.predict(std::vector<double>{8.0}), 2);
}

// ---------- metrics ----------

TEST(Metrics, AccuracyBasic) {
  const std::vector<Label> t{0, 1, 1, 0};
  const std::vector<Label> p{0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(accuracy(t, p), 0.75);
}

TEST(Metrics, AccuracyThrowsOnMismatch) {
  const std::vector<Label> t{0, 1};
  const std::vector<Label> p{0};
  EXPECT_THROW(accuracy(t, p), std::invalid_argument);
}

TEST(Metrics, ConfusionMatrix) {
  const std::vector<Label> t{0, 0, 1, 1, 1};
  const std::vector<Label> p{0, 1, 1, 1, 0};
  const auto cm = confusion_matrix(t, p);
  EXPECT_EQ(cm[0][0], 1);
  EXPECT_EQ(cm[0][1], 1);
  EXPECT_EQ(cm[1][0], 1);
  EXPECT_EQ(cm[1][1], 2);
}

TEST(Metrics, WeightedF1HandComputed) {
  // class 0: support 2, tp=1, fp=1, fn=1 -> P=0.5 R=0.5 F1=0.5
  // class 1: support 3, tp=2, fp=1, fn=1 -> P=2/3 R=2/3 F1=2/3
  // weighted: 0.5*2/5 + (2/3)*3/5 = 0.2 + 0.4 = 0.6
  const std::vector<Label> t{0, 0, 1, 1, 1};
  const std::vector<Label> p{0, 1, 1, 1, 0};
  EXPECT_NEAR(weighted_f1(t, p), 0.6, 1e-9);
}

TEST(Metrics, PerfectPredictionF1IsOne) {
  const std::vector<Label> t{0, 1, 2, 1, 0};
  EXPECT_DOUBLE_EQ(weighted_f1(t, t), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(t, t), 1.0);
}

// ---------- cross validation ----------

TEST(CrossValidation, HighAccuracyOnSeparableData) {
  util::Rng rng(21);
  const DataSet d = blobs(60, rng);
  const auto result = cross_validate(
      d, [] { return std::make_unique<DecisionTree>(); }, 5, 2, rng);
  EXPECT_GT(result.accuracy, 0.97);
  EXPECT_GT(result.weighted_f1, 0.97);
  EXPECT_EQ(result.folds, 5);
  EXPECT_EQ(result.repeats, 2);
}

TEST(CrossValidation, InvalidInputsThrow) {
  util::Rng rng(23);
  const DataSet d = blobs(10, rng);
  const ClassifierFactory factory = [] {
    return std::make_unique<DecisionTree>();
  };
  EXPECT_THROW(cross_validate(d, factory, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(cross_validate(d, factory, 5, 0, rng), std::invalid_argument);
  DataSet tiny(1);
  tiny.add(std::vector<double>{0.0}, 0);
  tiny.add(std::vector<double>{1.0}, 1);
  EXPECT_THROW(cross_validate(tiny, factory, 5, 1, rng),
               std::invalid_argument);
}

TEST(CrossValidation, ParallelPoolBitIdenticalToSerial) {
  util::Rng data_rng(24);
  const DataSet d = blobs(40, data_rng);
  const ClassifierFactory factory = [] {
    RandomForestConfig cfg;
    cfg.num_trees = 10;
    cfg.num_threads = 1;
    return std::make_unique<RandomForest>(cfg);
  };
  util::Rng r1(25), r2(25);
  const CvResult serial = cross_validate(d, factory, 5, 3, r1, nullptr);
  util::ThreadPool pool(4);
  const CvResult parallel = cross_validate(d, factory, 5, 3, r2, &pool);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_EQ(serial.weighted_f1, parallel.weighted_f1);
}

TEST(CrossValidation, TrainTestSeparation) {
  util::Rng rng(22);
  const DataSet train = blobs(60, rng);
  // Shifted test distribution: accuracy degrades but stays above chance.
  DataSet test(2);
  for (int i = 0; i < 50; ++i) {
    test.add(std::vector<double>{rng.gaussian(1, 1), rng.gaussian(1, 1)}, 0);
    test.add(std::vector<double>{rng.gaussian(5, 1), rng.gaussian(5, 1)}, 1);
  }
  const auto result = train_test(
      train, test, [] { return std::make_unique<DecisionTree>(); }, rng);
  EXPECT_GT(result.accuracy, 0.6);
}

}  // namespace
}  // namespace libra::ml
