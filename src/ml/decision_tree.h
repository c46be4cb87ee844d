// CART decision tree (Sec. 6.2): axis-aligned binary splits chosen by Gini
// impurity or entropy, with a maximum-depth cap to control overfitting (the
// paper limits tree depth for both DT and RF).
//
// Trees grow from a PresortedSet: the training set sorted once per feature.
// Every node holds the same range of each feature's row list, sweeps its
// candidate features over that range and stable-partitions the lists by the
// chosen split, so no node ever sorts. Rows carry multiplicities, which is
// how a forest grows every bootstrap bag from one shared presort
// (docs/architecture.md, "Forest training: one presort per forest").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/data.h"

namespace libra::ml {

enum class Impurity { kGini, kEntropy };

// A node with fewer samples than this is a leaf.
inline constexpr int kMinSamplesSplit = 2;
static_assert(kMinSamplesSplit >= 1);

struct DecisionTreeConfig {
  Impurity impurity = Impurity::kGini;
  int max_depth = 8;
  // When positive, consider only this many randomly chosen features per
  // split (used by the random forest); 0 = all features.
  int max_features = 0;

  // Throws std::invalid_argument unless max_depth >= 0 and
  // max_features >= 0.
  void validate() const;
};

// A training set sorted once per feature: column-major values, the labels,
// and each feature's rows in ascending value order (ties in any order: no
// split depends on it). Read-only once built, so trees grown in parallel
// share one.
class PresortedSet {
 public:
  // Throws std::invalid_argument, prefixed with `who`, on an empty set or on
  // a NaN or infinite feature (naming its row and feature).
  PresortedSet(const DataSet& data, const char* who);

  std::size_t size() const { return labels_.size(); }
  std::size_t num_features() const { return num_features_; }
  double value(std::size_t feature, std::uint32_t row) const {
    return values_[feature * size() + row];
  }
  Label label(std::uint32_t row) const { return labels_[row]; }
  std::span<const std::uint32_t> order(std::size_t feature) const {
    return {order_.data() + feature * size(), size()};
  }

 private:
  std::size_t num_features_ = 0;
  std::vector<double> values_;        // values_[f * size() + row]
  std::vector<Label> labels_;
  std::vector<std::uint32_t> order_;  // order_[f * size() + k]: k-th smallest
};

class DecisionTree : public Classifier {
 public:
  // Throws std::invalid_argument on an invalid config.
  explicit DecisionTree(DecisionTreeConfig cfg = {});

  // Presorts `train` and grows with every multiplicity 1. Throws
  // std::invalid_argument on an empty set or a non-finite feature.
  void fit(const DataSet& train, util::Rng& rng) override;
  // Grows from a shared presort in which row r occurs multiplicity[r]
  // times (a forest's bootstrap bag). Node sizes, min_samples_split and
  // importances count multiplicities; num_classes() comes from the labels
  // of the rows with multiplicity > 0. The model equals a per-node-sort fit
  // on the bag written out row by row. Throws std::invalid_argument on a
  // size mismatch, an empty bag or a bag of more than INT_MAX rows.
  void fit(const PresortedSet& data,
           std::span<const std::uint32_t> multiplicity, util::Rng& rng);
  Label predict(std::span<const double> features) const override;

  // Impurity-decrease importance per feature, normalized to sum to 1
  // ("Gini importance", Table 3). Empty before fit().
  const std::vector<double>& feature_importances() const {
    return importances_;
  }
  // Raw (unnormalized) importance accumulator; used by the forest to
  // aggregate before normalizing.
  const std::vector<double>& raw_importances() const {
    return raw_importances_;
  }

  // Flat node layout, exposed for model serialization (ml/model_io.h).
  struct Node {
    int feature = -1;        // -1 = leaf
    double threshold = 0.0;  // go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    Label label = 0;         // majority label (leaves)
  };
  const std::vector<Node>& nodes() const { return nodes_; }
  int num_classes() const { return num_classes_; }
  // Restore a tree from serialized state (replaces any fit model).
  // Validates the untrusted input -- child indices in range, no cycles or
  // shared/orphaned subtrees, labels within [0, num_classes), split
  // features within the importance vector -- and throws
  // std::invalid_argument on any violation.
  void import_model(std::vector<Node> nodes, std::vector<double> importances,
                    int num_classes);

 private:
  struct Grower;  // one fit's row lists and scratch
  int build(Grower& g, std::size_t begin, std::size_t end,
            const std::vector<int>& counts, int total, int depth,
            util::Rng& rng);

  DecisionTreeConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  std::vector<double> raw_importances_;
  int num_classes_ = 2;
};

}  // namespace libra::ml
