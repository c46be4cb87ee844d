#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/span.h"

namespace libra::ml {

namespace {
obs::Histogram& fit_latency_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("forest.fit_latency_us");
  return h;
}
obs::Counter& trees_trained_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("forest.trees_trained");
  return c;
}
obs::Counter& batch_rows_counter() {
  static obs::Counter& c = obs::Registry::global().counter("forest.batch_rows");
  return c;
}
}  // namespace

RandomForest::RandomForest(RandomForestConfig cfg) : cfg_(cfg) {}

util::ThreadPool* RandomForest::pool() const {
  if (external_pool_ != nullptr) return external_pool_;
  const int threads = util::ThreadPool::resolve(cfg_.num_threads);
  // Inside another pool's worker the loops run inline anyway, so don't
  // spin up (and then never use) a private pool per forest.
  if (threads <= 1 || util::ThreadPool::in_worker()) return nullptr;
  if (!owned_pool_) {
    owned_pool_ = std::make_shared<util::ThreadPool>(threads);
  }
  return owned_pool_.get();
}

void RandomForest::fit(const DataSet& train, util::Rng& rng) {
  if (train.empty()) {
    throw std::invalid_argument("RandomForest::fit: empty training set");
  }
  OBS_SPAN("forest.fit", &fit_latency_hist());
  trees_trained_counter().inc(static_cast<std::uint64_t>(
      std::max(0, cfg_.num_trees)));
  trees_.clear();
  num_classes_ = std::max(train.num_classes(), 2);

  DecisionTreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.max_features == 0) {
    // sqrt(d) features per split, the standard forest default.
    tree_cfg.max_features = std::max(
        1, static_cast<int>(std::round(
               std::sqrt(static_cast<double>(train.num_features())))));
  }

  const auto num_trees = static_cast<std::size_t>(cfg_.num_trees);
  // Split one deterministic child stream per tree before any parallel
  // work: tree t consumes only streams[t], so the thread schedule cannot
  // leak into the model and serial == parallel bit-for-bit.
  std::vector<util::Rng> streams;
  streams.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) streams.push_back(rng.fork());

  const auto sample_size = static_cast<std::size_t>(
      std::max<double>(1.0, cfg_.bootstrap_fraction *
                                static_cast<double>(train.size())));
  trees_.assign(num_trees, DecisionTree(tree_cfg));
  util::parallel_for(pool(), num_trees, [&](std::size_t t) {
    util::Rng& tree_rng = streams[t];
    std::vector<std::size_t> bootstrap(sample_size);
    for (std::size_t& idx : bootstrap) {
      idx = static_cast<std::size_t>(
          tree_rng.uniform_int(0, static_cast<int>(train.size()) - 1));
    }
    const DataSet bag = train.subset(bootstrap);
    trees_[t].fit(bag, tree_rng);
  });

  // Aggregate importances serially in tree order (deterministic sum).
  importances_.assign(train.num_features(), 0.0);
  for (const DecisionTree& tree : trees_) {
    for (std::size_t f = 0; f < importances_.size(); ++f) {
      importances_[f] += tree.raw_importances()[f];
    }
  }
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0) {
    for (double& imp : importances_) imp /= total;
  }
}

void RandomForest::import_model(std::vector<DecisionTree> trees,
                                std::vector<double> importances,
                                int num_classes) {
  if (num_classes < 2) {
    throw std::invalid_argument(
        "RandomForest::import_model: num_classes must be >= 2, got " +
        std::to_string(num_classes));
  }
  for (std::size_t t = 0; t < trees.size(); ++t) {
    // Tree-internal structure (children, cycles, labels) was validated by
    // DecisionTree::import_model; here check forest-level consistency so a
    // vote can never index past the accumulator.
    if (trees[t].num_classes() > num_classes) {
      throw std::invalid_argument(
          "RandomForest::import_model: tree " + std::to_string(t) + " has " +
          std::to_string(trees[t].num_classes()) +
          " classes but the forest declares " + std::to_string(num_classes));
    }
    if (trees[t].raw_importances().size() != importances.size()) {
      throw std::invalid_argument(
          "RandomForest::import_model: tree " + std::to_string(t) + " has " +
          std::to_string(trees[t].raw_importances().size()) +
          " feature importances but the forest declares " +
          std::to_string(importances.size()));
    }
  }
  trees_ = std::move(trees);
  importances_ = std::move(importances);
  num_classes_ = num_classes;
}

Label RandomForest::predict(std::span<const double> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict: forest is not fitted");
  }
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  for (const DecisionTree& tree : trees_) {
    ++votes[static_cast<std::size_t>(tree.predict(features))];
  }
  return static_cast<Label>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> RandomForest::vote_fractions(
    std::span<const double> features) const {
  std::vector<double> fractions(static_cast<std::size_t>(num_classes_), 0.0);
  if (trees_.empty()) return fractions;
  for (const DecisionTree& tree : trees_) {
    fractions[static_cast<std::size_t>(tree.predict(features))] += 1.0;
  }
  for (double& f : fractions) f /= static_cast<double>(trees_.size());
  return fractions;
}

std::vector<Label> RandomForest::predict_batch(const DataSet& data) const {
  OBS_SPAN("forest.predict_batch");
  batch_rows_counter().inc(data.size());
  std::vector<Label> out(data.size());
  util::parallel_for(pool(), data.size(),
                     [&](std::size_t i) { out[i] = predict(data.row(i)); });
  return out;
}

std::vector<std::vector<double>> RandomForest::vote_fractions_batch(
    const DataSet& data) const {
  OBS_SPAN("forest.vote_fractions_batch");
  batch_rows_counter().inc(data.size());
  std::vector<std::vector<double>> out(data.size());
  util::parallel_for(pool(), data.size(), [&](std::size_t i) {
    out[i] = vote_fractions(data.row(i));
  });
  return out;
}

}  // namespace libra::ml
