#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace libra::ml {

namespace {

double impurity_from_counts(const std::vector<int>& counts, int total,
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

}  // namespace

void DecisionTreeConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("DecisionTreeConfig: " + what);
  };
  if (max_depth < 0) {
    fail("max_depth must be >= 0, got " + std::to_string(max_depth));
  }
  if (min_samples_split < 1) {
    fail("min_samples_split must be >= 1, got " +
         std::to_string(min_samples_split));
  }
  if (max_features < 0) {
    fail("max_features must be >= 0, got " + std::to_string(max_features));
  }
}

PresortedSet::PresortedSet(const DataSet& data, const char* who)
    : num_features_(data.num_features()), labels_(data.labels()) {
  if (data.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty training set");
  }
  const std::size_t n = data.size();
  values_.resize(num_features_ * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < num_features_; ++f) {
      if (!std::isfinite(row[f])) {
        throw std::invalid_argument(
            std::string(who) + ": non-finite value in row " +
            std::to_string(i) + ", feature " + std::to_string(f));
      }
      values_[f * n + i] = row[f];
    }
  }
  order_.resize(num_features_ * n);
  for (std::size_t f = 0; f < num_features_; ++f) {
    const double* col = values_.data() + f * n;
    const auto list = order_.begin() + static_cast<std::ptrdiff_t>(f * n);
    std::iota(list, list + static_cast<std::ptrdiff_t>(n), std::uint32_t{0});
    std::sort(list, list + static_cast<std::ptrdiff_t>(n),
              [col](std::uint32_t a, std::uint32_t b) {
                return col[a] < col[b];
              });
  }
}

// One fit's working state. lists[f * m + k] is the k-th row (by feature f's
// value) of the m distinct rows in the bag; a node owns the same range
// [begin, end) of every feature's list.
struct DecisionTree::Grower {
  const PresortedSet& data;
  std::span<const std::uint32_t> multiplicity;
  std::size_t m = 0;
  std::vector<std::uint32_t> lists;
  std::vector<char> goes_left;         // by row, for the partition
  std::vector<std::uint32_t> scratch;  // the right side while partitioning

  std::uint32_t* list(std::size_t f) { return lists.data() + f * m; }
};

DecisionTree::DecisionTree(DecisionTreeConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

void DecisionTree::fit(const DataSet& train, util::Rng& rng) {
  const PresortedSet data(train, "DecisionTree::fit");
  const std::vector<std::uint32_t> ones(data.size(), 1);
  fit(data, ones, rng);
}

void DecisionTree::fit(const PresortedSet& data,
                       std::span<const std::uint32_t> multiplicity,
                       util::Rng& rng) {
  const std::size_t n = data.size();
  if (multiplicity.size() != n) {
    throw std::invalid_argument("DecisionTree::fit: " +
                                std::to_string(multiplicity.size()) +
                                " multiplicities for " + std::to_string(n) +
                                " rows");
  }
  // Node sizes and class counts are ints, as they were for a copied bag.
  const std::uint64_t bag_size = std::accumulate(
      multiplicity.begin(), multiplicity.end(), std::uint64_t{0});
  if (bag_size == 0) {
    throw std::invalid_argument("DecisionTree::fit: every multiplicity is 0");
  }
  if (bag_size > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("DecisionTree::fit: a bag of " +
                                std::to_string(bag_size) +
                                " rows overflows the node counts");
  }
  Grower g{data, multiplicity, 0, {}, {}, {}};
  Label max_label = -1;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (multiplicity[r] > 0) {
      ++g.m;
      max_label = std::max(max_label, data.label(r));
    }
  }
  nodes_.clear();
  num_classes_ = std::max(max_label + 1, 2);
  raw_importances_.assign(data.num_features(), 0.0);

  const int total = static_cast<int>(bag_size);
  std::vector<int> counts(static_cast<std::size_t>(num_classes_), 0);
  for (std::uint32_t r = 0; r < n; ++r) {
    if (multiplicity[r] > 0) {  // a row outside the bag may hold any label
      counts[static_cast<std::size_t>(data.label(r))] +=
          static_cast<int>(multiplicity[r]);
    }
  }
  // Each feature's root list: the shared order, filtered to the bag.
  g.lists.resize(data.num_features() * g.m);
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    std::uint32_t* out = g.list(f);
    for (const std::uint32_t r : data.order(f)) {
      if (multiplicity[r] > 0) *out++ = r;
    }
  }
  g.goes_left.resize(n);
  g.scratch.resize(g.m);
  build(g, 0, g.m, counts, total, 0, rng);

  // Normalize the impurity decreases into Gini importances.
  importances_ = raw_importances_;
  const double sum =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (sum > 0) {
    for (double& imp : importances_) imp /= sum;
  }
}

// `counts` and `total` are the node's class counts and size, multiplicities
// included; [begin, end) is its range of every feature's list.
int DecisionTree::build(Grower& g, std::size_t begin, std::size_t end,
                        const std::vector<int>& counts, int total, int depth,
                        util::Rng& rng) {
  const PresortedSet& data = g.data;
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  // Majority label for this node (used if it stays a leaf).
  nodes_[static_cast<std::size_t>(node_id)].label = static_cast<Label>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  const double parent_impurity =
      impurity_from_counts(counts, total, cfg_.impurity);
  const bool pure =
      std::count_if(counts.begin(), counts.end(), [](int c) { return c > 0; }) <= 1;
  if (depth >= cfg_.max_depth || pure || total < cfg_.min_samples_split) {
    return node_id;
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<std::size_t> features(data.num_features());
  std::iota(features.begin(), features.end(), 0);
  if (cfg_.max_features > 0 &&
      cfg_.max_features < static_cast<int>(features.size())) {
    rng.shuffle(features);
    features.resize(static_cast<std::size_t>(cfg_.max_features));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  std::vector<int> left_counts(counts.size());
  std::vector<int> right_counts(counts.size());
  for (std::size_t f : features) {
    // Sweep split points between consecutive distinct values; a run of
    // equal values moves left whole, so its row order cannot matter.
    const std::uint32_t* list = g.list(f);
    std::fill(left_counts.begin(), left_counts.end(), 0);
    right_counts = counts;
    int n_left = 0;
    double value = data.value(f, list[begin]);
    for (std::size_t i = begin; i + 1 < end; ++i) {
      const std::uint32_t row = list[i];
      const int w = static_cast<int>(g.multiplicity[row]);
      const auto cls = static_cast<std::size_t>(data.label(row));
      left_counts[cls] += w;
      right_counts[cls] -= w;
      n_left += w;
      const double here = value;
      value = data.value(f, list[i + 1]);
      if (here == value) continue;
      const int n_right = total - n_left;
      const double child_impurity =
          (static_cast<double>(n_left) *
               impurity_from_counts(left_counts, n_left, cfg_.impurity) +
           static_cast<double>(n_right) *
               impurity_from_counts(right_counts, n_right, cfg_.impurity)) /
          static_cast<double>(total);
      const double gain = parent_impurity - child_impurity;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (here + value) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split found

  // The best feature's list is in value order, so the rows that go left
  // are a prefix of it.
  const auto best = static_cast<std::size_t>(best_feature);
  const std::uint32_t* best_list = g.list(best);
  std::fill(left_counts.begin(), left_counts.end(), 0);
  int n_left = 0;
  std::size_t mid = begin;
  for (; mid < end && data.value(best, best_list[mid]) <= best_threshold;
       ++mid) {
    const std::uint32_t row = best_list[mid];
    left_counts[static_cast<std::size_t>(data.label(row))] +=
        static_cast<int>(g.multiplicity[row]);
    n_left += static_cast<int>(g.multiplicity[row]);
  }
  // The midpoint of two adjacent doubles can round onto one of them and
  // leave a side empty.
  if (mid == begin || mid == end) return node_id;

  raw_importances_[best] += best_gain * static_cast<double>(total);

  // Stable-partition every other list so each side stays in value order.
  for (std::size_t i = begin; i < end; ++i) {
    g.goes_left[best_list[i]] = i < mid;
  }
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    if (f == best) continue;
    std::uint32_t* list = g.list(f);
    std::size_t l = begin;
    std::size_t r = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (g.goes_left[list[i]]) {
        list[l++] = list[i];
      } else {
        g.scratch[r++] = list[i];
      }
    }
    std::copy_n(g.scratch.begin(), r, list + l);
  }
  for (std::size_t c = 0; c < counts.size(); ++c) {
    right_counts[c] = counts[c] - left_counts[c];
  }

  const int left = build(g, begin, mid, left_counts, n_left, depth + 1, rng);
  const int right =
      build(g, mid, end, right_counts, total - n_left, depth + 1, rng);
  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

void DecisionTree::import_model(std::vector<Node> nodes,
                                std::vector<double> importances,
                                int num_classes) {
  // Deserialized state is untrusted: a corrupt model file must fail loudly
  // here, not as out-of-bounds reads or an infinite predict() walk later.
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("DecisionTree::import_model: " + what);
  };
  if (num_classes < 2) {
    fail("num_classes must be >= 2, got " + std::to_string(num_classes));
  }
  const auto n = static_cast<int>(nodes.size());
  for (int id = 0; id < n; ++id) {
    const Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.label < 0 || node.label >= num_classes) {
      fail("node " + std::to_string(id) + " label " +
           std::to_string(node.label) + " outside [0, " +
           std::to_string(num_classes) + ")");
    }
    if (node.feature >= 0) {
      if (!importances.empty() &&
          node.feature >= static_cast<int>(importances.size())) {
        fail("node " + std::to_string(id) + " splits on feature " +
             std::to_string(node.feature) + " but the model has " +
             std::to_string(importances.size()) + " features");
      }
      if (node.left < 0 || node.left >= n || node.right < 0 ||
          node.right >= n) {
        fail("node " + std::to_string(id) + " child index out of range");
      }
    }
  }
  if (n > 0) {
    // Reachability walk from the root: in a well-formed binary tree every
    // node is referenced exactly once, so a revisit means a cycle (or a
    // shared subtree) and a shortfall means orphaned nodes.
    std::vector<char> visited(nodes.size(), 0);
    std::vector<int> stack{0};
    int seen = 0;
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (visited[static_cast<std::size_t>(id)]) {
        fail("cycle or shared subtree at node " + std::to_string(id));
      }
      visited[static_cast<std::size_t>(id)] = 1;
      ++seen;
      const Node& node = nodes[static_cast<std::size_t>(id)];
      if (node.feature >= 0) {
        stack.push_back(node.left);
        stack.push_back(node.right);
      }
    }
    if (seen != n) {
      fail(std::to_string(n - seen) + " node(s) unreachable from the root");
    }
  }
  nodes_ = std::move(nodes);
  importances_ = importances;
  raw_importances_ = std::move(importances);
  num_classes_ = num_classes;
}

Label DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0;
  int id = 0;
  while (nodes_[static_cast<std::size_t>(id)].feature >= 0) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    id = features[static_cast<std::size_t>(node.feature)] <= node.threshold
             ? node.left
             : node.right;
  }
  return nodes_[static_cast<std::size_t>(id)].label;
}

}  // namespace libra::ml
