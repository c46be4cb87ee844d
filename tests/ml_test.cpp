#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

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

// Levels from the root to the deepest leaf (1 for a lone leaf).
int depth(const DecisionTree& dt, int id = 0) {
  const DecisionTree::Node& node = dt.nodes()[static_cast<std::size_t>(id)];
  if (node.feature < 0) return 1;
  return 1 + std::max(depth(dt, node.left), depth(dt, node.right));
}

TEST(DecisionTree, DepthCapRespected) {
  util::Rng rng(3);
  const DataSet train = xor_data(50, rng);
  DecisionTreeConfig cfg;
  cfg.max_depth = 2;
  DecisionTree dt(cfg);
  dt.fit(train, rng);
  EXPECT_LE(depth(dt), 3);  // root + 2 levels
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
  EXPECT_EQ(dt.nodes().size(), 1u);
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
    EXPECT_EQ(serial.trees()[t].nodes().size(),
              parallel.trees()[t].nodes().size());
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

TEST(DecisionTree, FitOnEmptySetThrows) {
  DecisionTree dt;
  util::Rng rng(1);
  EXPECT_THROW(dt.fit(DataSet(3), rng), std::invalid_argument);
}

// A NaN would reach the presort's comparator; both fits reject it (and an
// infinity) up front, naming the row and the feature.
TEST(DecisionTree, NonFiniteFeatureThrowsNamingRowAndFeature) {
  for (const double bad : {std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    DataSet d(2);
    for (int i = 0; i < 5; ++i) {
      d.add(std::vector<double>{double(i), i == 3 ? bad : 1.0}, i % 2);
    }
    util::Rng rng(1);
    DecisionTree dt;
    RandomForest rf;
    for (Classifier* model : {static_cast<Classifier*>(&dt),
                              static_cast<Classifier*>(&rf)}) {
      try {
        model->fit(d, rng);
        ADD_FAILURE() << "fit accepted " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("row 3, feature 1"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// Node sizes are ints, as they were for a copied bag: a bag whose size
// would overflow them is rejected instead of wrapping.
TEST(DecisionTree, BagThatOverflowsNodeCountsThrows) {
  DataSet d(1);
  d.add(std::vector<double>{0.0}, 0);
  d.add(std::vector<double>{1.0}, 1);
  const PresortedSet sorted(d, "test");
  util::Rng rng(1);
  DecisionTree dt;
  const std::vector<std::uint32_t> huge{0x7fffffffu, 1u};
  EXPECT_THROW(dt.fit(sorted, huge, rng), std::invalid_argument);
  const std::vector<std::uint32_t> empty_bag{0u, 0u};
  EXPECT_THROW(dt.fit(sorted, empty_bag, rng), std::invalid_argument);
  const std::vector<std::uint32_t> short_bag{1u};
  EXPECT_THROW(dt.fit(sorted, short_bag, rng), std::invalid_argument);
}

TEST(DecisionTreeConfigValidation, MaxDepthMustBeNonNegative) {
  DecisionTreeConfig cfg;
  cfg.max_depth = -1;
  EXPECT_THROW(DecisionTree{cfg}, std::invalid_argument);
  cfg.max_depth = 0;
  EXPECT_NO_THROW(DecisionTree{cfg});
}

TEST(DecisionTreeConfigValidation, MaxFeaturesMustBeNonNegative) {
  DecisionTreeConfig cfg;
  cfg.max_features = -2;
  EXPECT_THROW(DecisionTree{cfg}, std::invalid_argument);
  RandomForestConfig forest;
  forest.tree = cfg;  // the forest validates its tree config too
  EXPECT_THROW(RandomForest{forest}, std::invalid_argument);
}

TEST(RandomForestConfigValidation, NumTreesMustBePositive) {
  for (const int bad : {0, -3}) {
    RandomForestConfig cfg;
    cfg.num_trees = bad;
    EXPECT_THROW(RandomForest{cfg}, std::invalid_argument) << bad;
  }
}

TEST(RandomForestConfigValidation, NumThreadsMustBeNonNegative) {
  RandomForestConfig cfg;
  cfg.num_threads = -1;
  EXPECT_THROW(RandomForest{cfg}, std::invalid_argument);
  cfg.num_threads = 0;  // 0 = all cores
  EXPECT_NO_THROW(RandomForest{cfg});
}

// ---------- presort equivalence ----------

// The tree as it was grown before the shared presort: every node copies and
// re-sorts (value, label) pairs for each candidate feature, and a forest
// copies each bootstrap bag out row by row. Kept as the oracle that the
// presorted grower must equal bit for bit.
struct ReferenceTree {
  std::vector<DecisionTree::Node> nodes;
  std::vector<double> raw_importances;
  int num_classes = 2;
};

double reference_impurity(const std::vector<int>& counts, int total,
                          Impurity kind) {
  if (total == 0) return 0.0;
  double result = kind == Impurity::kGini ? 1.0 : 0.0;
  for (int c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    if (kind == Impurity::kGini) {
      result -= p * p;
    } else {
      result -= p * std::log2(p);
    }
  }
  return result;
}

int reference_build(const DataSet& data, std::vector<std::size_t>& indices,
                    int depth, util::Rng& rng, const DecisionTreeConfig& cfg,
                    ReferenceTree& tree) {
  const int node_id = static_cast<int>(tree.nodes.size());
  tree.nodes.emplace_back();
  std::vector<int> counts(static_cast<std::size_t>(tree.num_classes), 0);
  for (std::size_t i : indices) {
    ++counts[static_cast<std::size_t>(data.label(i))];
  }
  tree.nodes[static_cast<std::size_t>(node_id)].label = static_cast<Label>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const double parent_impurity = reference_impurity(
      counts, static_cast<int>(indices.size()), cfg.impurity);
  const bool pure =
      std::count_if(counts.begin(), counts.end(),
                    [](int c) { return c > 0; }) <= 1;
  if (depth >= cfg.max_depth || pure ||
      static_cast<int>(indices.size()) < kMinSamplesSplit) {
    return node_id;
  }
  std::vector<std::size_t> features(data.num_features());
  std::iota(features.begin(), features.end(), 0);
  if (cfg.max_features > 0 &&
      cfg.max_features < static_cast<int>(features.size())) {
    rng.shuffle(features);
    features.resize(static_cast<std::size_t>(cfg.max_features));
  }
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  std::vector<std::pair<double, Label>> column(indices.size());
  for (std::size_t f : features) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      column[i] = {data.row(indices[i])[f], data.label(indices[i])};
    }
    std::sort(column.begin(), column.end());
    std::vector<int> left_counts(static_cast<std::size_t>(tree.num_classes), 0);
    std::vector<int> right_counts = counts;
    const int n = static_cast<int>(column.size());
    for (int i = 0; i + 1 < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const auto cls = static_cast<std::size_t>(column[k].second);
      ++left_counts[cls];
      --right_counts[cls];
      if (column[k].first == column[k + 1].first) continue;
      const int n_left = i + 1;
      const int n_right = n - n_left;
      const double child_impurity =
          (static_cast<double>(n_left) *
               reference_impurity(left_counts, n_left, cfg.impurity) +
           static_cast<double>(n_right) *
               reference_impurity(right_counts, n_right, cfg.impurity)) /
          static_cast<double>(n);
      const double gain = parent_impurity - child_impurity;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (column[k].first + column[k + 1].first) / 2.0;
      }
    }
  }
  if (best_feature < 0) return node_id;
  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (data.row(i)[static_cast<std::size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;
  tree.raw_importances[static_cast<std::size_t>(best_feature)] +=
      best_gain * static_cast<double>(indices.size());
  const int left = reference_build(data, left_idx, depth + 1, rng, cfg, tree);
  const int right = reference_build(data, right_idx, depth + 1, rng, cfg, tree);
  DecisionTree::Node& node = tree.nodes[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

ReferenceTree reference_fit(const DataSet& train,
                            const DecisionTreeConfig& cfg, util::Rng& rng) {
  ReferenceTree tree;
  tree.num_classes = std::max(train.num_classes(), 2);
  tree.raw_importances.assign(train.num_features(), 0.0);
  std::vector<std::size_t> indices(train.size());
  std::iota(indices.begin(), indices.end(), 0);
  reference_build(train, indices, 0, rng, cfg, tree);
  return tree;
}

struct ReferenceForest {
  std::vector<ReferenceTree> trees;
  std::vector<double> importances;
};

ReferenceForest reference_forest_fit(const DataSet& train,
                                     const RandomForestConfig& cfg,
                                     util::Rng& rng) {
  DecisionTreeConfig tree_cfg = cfg.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = std::max(
        1, static_cast<int>(std::round(
               std::sqrt(static_cast<double>(train.num_features())))));
  }
  std::vector<util::Rng> streams;
  for (int t = 0; t < cfg.num_trees; ++t) streams.push_back(rng.fork());
  const auto sample_size = static_cast<std::size_t>(std::max<double>(
      1.0, kBootstrapFraction * static_cast<double>(train.size())));
  ReferenceForest forest;
  for (util::Rng& tree_rng : streams) {
    std::vector<std::size_t> bootstrap(sample_size);
    for (std::size_t& idx : bootstrap) {
      idx = static_cast<std::size_t>(
          tree_rng.uniform_int(0, static_cast<int>(train.size()) - 1));
    }
    forest.trees.push_back(reference_fit(train.subset(bootstrap), tree_cfg,
                                         tree_rng));
  }
  forest.importances.assign(train.num_features(), 0.0);
  for (const ReferenceTree& tree : forest.trees) {
    for (std::size_t f = 0; f < forest.importances.size(); ++f) {
      forest.importances[f] += tree.raw_importances[f];
    }
  }
  const double total = std::accumulate(forest.importances.begin(),
                                       forest.importances.end(), 0.0);
  if (total > 0) {
    for (double& imp : forest.importances) imp /= total;
  }
  return forest;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

void expect_same_tree(const DecisionTree& got, const ReferenceTree& want) {
  EXPECT_EQ(got.num_classes(), want.num_classes);
  EXPECT_EQ(bits_of(got.raw_importances()), bits_of(want.raw_importances));
  ASSERT_EQ(got.nodes().size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const DecisionTree::Node& g = got.nodes()[i];
    const DecisionTree::Node& w = want.nodes[i];
    EXPECT_EQ(g.feature, w.feature) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.threshold),
              std::bit_cast<std::uint64_t>(w.threshold))
        << "node " << i;
    EXPECT_EQ(g.left, w.left) << "node " << i;
    EXPECT_EQ(g.right, w.right) << "node " << i;
    EXPECT_EQ(g.label, w.label) << "node " << i;
  }
}

// Quantised, tie-heavy values: few levels per feature, a constant column,
// duplicated rows, signed zeros, and a rare top class that small bags miss.
DataSet tie_heavy(util::Rng& rng, int n, int d, int classes) {
  DataSet data(static_cast<std::size_t>(d));
  std::vector<int> levels(static_cast<std::size_t>(d));
  for (int& l : levels) l = rng.uniform_int(1, 6);
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.15)) {  // duplicate an earlier row
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
      const std::vector<double> row(data.row(j).begin(), data.row(j).end());
      data.add(row, data.label(j));
      continue;
    }
    std::vector<double> row(static_cast<std::size_t>(d));
    int score = 0;
    for (std::size_t f = 0; f < row.size(); ++f) {
      const int q = rng.uniform_int(0, levels[f] - 1);
      score += q;
      row[f] = q == 0 ? (rng.bernoulli(0.5) ? 0.0 : -0.0) : 0.25 * q - 0.5;
    }
    int label = (score + rng.uniform_int(0, 1)) % std::max(1, classes - 1);
    if (classes > 1 && rng.bernoulli(0.03)) label = classes - 1;
    data.add(row, label);
  }
  return data;
}

// Datasets for the equivalence checks: random tie-heavy sets plus the edge
// cases named in the comments.
std::vector<DataSet> equivalence_sets() {
  std::vector<DataSet> sets;
  util::Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    sets.push_back(tie_heavy(rng, rng.uniform_int(3, 90),
                             rng.uniform_int(1, 5), rng.uniform_int(2, 4)));
  }
  // One class only.
  sets.push_back(tie_heavy(rng, 30, 3, 1));
  // n = 1 and n = 2.
  sets.push_back(tie_heavy(rng, 1, 2, 2));
  DataSet two(2);
  two.add(std::vector<double>{0.0, 1.0}, 0);
  two.add(std::vector<double>{1.0, 1.0}, 1);
  sets.push_back(two);
  // Every row duplicated, one constant column.
  DataSet dup(3);
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> row{double(i % 5), 7.0, double(i % 3)};
    dup.add(row, (i % 5 + i % 3) % 3);
    dup.add(row, (i % 5 + i % 3) % 3);
  }
  sets.push_back(dup);
  // A rare top class: one row of class 3 in 60.
  DataSet rare(2);
  for (int i = 0; i < 60; ++i) {
    rare.add(std::vector<double>{double(i % 7), double(i % 4)},
             i == 17 ? 3 : (i % 7 < 3 ? 0 : 1));
  }
  sets.push_back(rare);
  // Two adjacent doubles whose midpoint rounds onto the larger one: the
  // best split sends every row left, so the node must stay a leaf.
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  DataSet adjacent(1);
  for (int i = 0; i < 12; ++i) {
    adjacent.add(std::vector<double>{i % 2 == 0 ? lo : hi}, i % 2);
  }
  sets.push_back(adjacent);
  return sets;
}

TEST(PresortEquivalence, AdjacentDoublesMidpointRoundsOntoTheUpperValue) {
  // The premise of the empty-side case in equivalence_sets().
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  EXPECT_EQ((lo + hi) / 2.0, hi);
  DataSet adjacent(1);
  adjacent.add(std::vector<double>{lo}, 0);
  adjacent.add(std::vector<double>{hi}, 1);
  DecisionTree dt;
  util::Rng rng(1);
  dt.fit(adjacent, rng);
  EXPECT_EQ(dt.nodes().size(), 1u);
}

TEST(PresortEquivalence, TreeMatchesPerNodeSortFit) {
  const std::vector<DataSet> sets = equivalence_sets();
  int splits = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const DataSet& data = sets[s];
    const int d = static_cast<int>(data.num_features());
    for (const Impurity impurity : {Impurity::kGini, Impurity::kEntropy}) {
      for (const int max_features : {0, 1, d}) {
        for (const int max_depth : {0, 1, 8}) {
          SCOPED_TRACE(testing::Message()
                       << "set " << s << " max_features " << max_features
                       << " max_depth " << max_depth << " entropy "
                       << (impurity == Impurity::kEntropy));
          const DecisionTreeConfig cfg{impurity, max_depth, max_features};
          util::Rng rng(77 + s), ref_rng(77 + s);
          DecisionTree tree(cfg);
          tree.fit(data, rng);
          expect_same_tree(tree, reference_fit(data, cfg, ref_rng));
          EXPECT_TRUE(rng.engine() == ref_rng.engine());
          splits += static_cast<int>(tree.nodes().size()) - 1;
        }
      }
    }
  }
  EXPECT_GT(splits, 1000);  // the grid grows real trees, not only leaves
}

TEST(PresortEquivalence, ForestMatchesBaggedPerNodeSortFits) {
  const std::vector<DataSet> sets = equivalence_sets();
  int bags_missing_a_class = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const DataSet& data = sets[s];
    const int d = static_cast<int>(data.num_features());
    for (const int max_features : {0, 1, d}) {
      for (const int max_depth : {0, 1, 8}) {
        for (const Impurity impurity : {Impurity::kGini, Impurity::kEntropy}) {
          SCOPED_TRACE(testing::Message()
                       << "set " << s << " max_features " << max_features
                       << " max_depth " << max_depth << " entropy "
                       << (impurity == Impurity::kEntropy));
          RandomForestConfig cfg;
          cfg.num_trees = 4;
          cfg.num_threads = 1;
          cfg.tree = {impurity, max_depth, max_features};
          util::Rng rng(5 + s), ref_rng(5 + s);
          RandomForest forest(cfg);
          forest.fit(data, rng);
          const ReferenceForest ref = reference_forest_fit(data, cfg, ref_rng);
          EXPECT_TRUE(rng.engine() == ref_rng.engine());
          EXPECT_EQ(bits_of(forest.feature_importances()),
                    bits_of(ref.importances));
          ASSERT_EQ(forest.trees().size(), ref.trees.size());
          for (std::size_t t = 0; t < ref.trees.size(); ++t) {
            SCOPED_TRACE(testing::Message() << "tree " << t);
            expect_same_tree(forest.trees()[t], ref.trees[t]);
            bags_missing_a_class +=
                forest.trees()[t].num_classes() < forest.num_classes();
          }
        }
      }
    }
  }
  EXPECT_GT(bags_missing_a_class, 0);  // the rare class case is exercised
}

TEST(PresortEquivalence, ForestIsBitIdenticalAcrossThreadCounts) {
  const std::vector<DataSet> sets = equivalence_sets();
  for (std::size_t s = 0; s < sets.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "set " << s);
    RandomForestConfig cfg;
    cfg.num_trees = 9;
    cfg.num_threads = 4;
    util::Rng rng(9 + s), ref_rng(9 + s);
    RandomForest parallel(cfg);
    parallel.fit(sets[s], rng);
    const ReferenceForest ref = reference_forest_fit(sets[s], cfg, ref_rng);
    EXPECT_TRUE(rng.engine() == ref_rng.engine());
    EXPECT_EQ(bits_of(parallel.feature_importances()),
              bits_of(ref.importances));
    ASSERT_EQ(parallel.trees().size(), ref.trees.size());
    for (std::size_t t = 0; t < ref.trees.size(); ++t) {
      expect_same_tree(parallel.trees()[t], ref.trees[t]);
    }
  }
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
// labels single-row, same vote fractions batched.
void expect_compiled_matches_interpreted(const RandomForest& interpreted,
                                         const CompiledForest& compiled,
                                         const DataSet& test) {
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(compiled.predict(test.row(i)), interpreted.predict(test.row(i)))
        << "row " << i;
  }
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
  const std::vector<Label> walked = rf.predict_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(compiled.predict(batch.row(i)), walked[i]) << "row=" << i;
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

// One row would ask SMO for a partner index in [0, -1].
TEST(Svm, OneRowFitThrows) {
  DataSet one(2);
  one.add(std::vector<double>{1.0, 2.0}, 0);
  util::Rng rng(1);
  Svm svm;
  EXPECT_THROW(svm.fit(one, rng), std::invalid_argument);
}

// C must be finite and > 0: a non-positive or NaN C would make every fit an
// all-zero model.
TEST(Svm, NonFiniteOrNonPositiveCThrows) {
  for (const double c : {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    SvmConfig cfg;
    cfg.c = c;
    EXPECT_THROW(Svm{cfg}, std::invalid_argument) << "c=" << c;
    EXPECT_THROW(BinarySvm{cfg}, std::invalid_argument) << "c=" << c;
  }
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

// One negative case per NeuralNetConfig field; the message names it.
void expect_nn_config_rejected(const NeuralNetConfig& cfg, const char* field) {
  try {
    NeuralNet nn(cfg);
    ADD_FAILURE() << field << ": NeuralNet did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(NeuralNetConfigValidation, DropoutMustBeAFraction) {
  for (const double bad : {-0.1, 1.0, 1.5, std::nan("")}) {
    NeuralNetConfig cfg;
    cfg.dropout = bad;
    expect_nn_config_rejected(cfg, "dropout");
  }
}

TEST(NeuralNetConfigValidation, EpochsMustBeNonNegative) {
  NeuralNetConfig cfg;
  cfg.epochs = -1;
  expect_nn_config_rejected(cfg, "epochs");
}

TEST(NeuralNetConfigValidation, DefaultsAndEdgesAreAccepted) {
  EXPECT_NO_THROW(NeuralNet{});
  NeuralNetConfig cfg;
  cfg.dropout = 0.0;
  cfg.epochs = 0;
  EXPECT_NO_THROW(NeuralNet{cfg});
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
