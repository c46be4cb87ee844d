// Online-training extension.
//
// Sec. 6.2 shows accuracy drops when the model is deployed in a building it
// was not trained in, and Sec. 7 concludes offline training is sufficient
// *if* the training campaign is comprehensive -- while the authors' earlier
// work ([9]) found ML-driven RA to be environment-dependent and in need of
// online training. This module implements that missing piece: a deployed
// classifier that keeps learning. Labeled events (available in hindsight,
// once the chosen mechanism's outcome and the periodic beam refreshes
// reveal what the right call was) enter a sliding window; the forest is
// retrained every `retrain_every` new events on the seed dataset plus the
// window. Each retrain rides LibraClassifier::train_labeled -- the same
// fit path the fleet-scale background trainer (core/trainer.h) uses for
// its candidate models -- so the deployed model is re-frozen into its
// compiled serving form on every retrain, and the labeled seed rows are
// cached once instead of re-copied and re-labeled on every retrain (the
// window is small; the seed campaign is not).
#pragma once

#include <deque>
#include <optional>

#include "core/classifier.h"

namespace libra::core {

struct OnlineLibraConfig {
  LibraClassifierConfig classifier{};
  int window_size = 400;    // most recent in-deployment events kept
  int retrain_every = 25;   // events between retrains
  // Weight of in-deployment events: each is duplicated this many times so
  // the (small) local window can counterbalance the (large) seed dataset.
  int local_weight = 3;
};

class OnlineLibra {
 public:
  explicit OnlineLibra(OnlineLibraConfig cfg = {});

  // Offline pre-training on a seed campaign (kept for every retrain).
  void seed(const trace::Dataset& offline, const trace::GroundTruthConfig& gt,
            util::Rng& rng);

  // Feed one labeled in-deployment event; retrains when due.
  void observe(const trace::CaseRecord& record,
               const trace::GroundTruthConfig& gt, util::Rng& rng);

  trace::Action classify(const trace::FeatureVector& features,
                         util::Rng& rng) const {
    return classifier_.classify(features, rng);
  }
  const LibraClassifier& classifier() const { return classifier_; }
  int observed_events() const { return observed_; }
  int retrains() const { return retrains_; }

  // Worker pool for the periodic retrains (forwarded to the forest). The
  // Sec. 7 deployment retrains every other frame, so retrain latency is on
  // the product's critical path, not just a bench number.
  void set_thread_pool(util::ThreadPool* pool) {
    classifier_.set_thread_pool(pool);
  }

 private:
  void retrain(const trace::GroundTruthConfig& gt, util::Rng& rng);
  // (Re)label the seed campaign into the cached row sets. Runs once at
  // seed() and again only if a later observe() arrives with a different
  // ground-truth parameterization.
  void relabel_seed(const trace::GroundTruthConfig& gt);

  OnlineLibraConfig cfg_;
  LibraClassifier classifier_;
  trace::Dataset seed_;  // raw records, kept only for relabel_seed
  // Labeled seed rows split the way Dataset::labeled3 orders them
  // (impairment records first, NA augmentation second): a retrain splices
  // the weighted window rows between the two halves, reproducing the
  // legacy copy-the-whole-dataset row order bit for bit.
  ml::DataSet seed_head_rows_{trace::FeatureVector::kDim};
  ml::DataSet seed_tail_rows_{trace::FeatureVector::kDim};
  std::optional<trace::GroundTruthConfig> labeled_gt_;
  std::deque<trace::CaseRecord> window_;
  int observed_ = 0;
  int since_retrain_ = 0;
  int retrains_ = 0;
};

}  // namespace libra::core
