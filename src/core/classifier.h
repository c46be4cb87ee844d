// LiBRA's learned decision core (Sec. 7).
//
// A 3-class random forest (BA / RA / No-Adaptation) trained offline on
// labeled PHY-metric deltas decides, every other frame, whether adaptation
// is needed and which mechanism to trigger. When the Block ACK is missing
// the Tx has no fresh PHY metrics, so a rule distilled from the training
// data applies instead: with the current MCS below 6 BA is the right choice
// 92% of the time, so trigger BA; at MCS >= 6 the classes are balanced, so
// the choice follows the BA overhead (BA first when it is cheap).
//
// Serving: every (re)train fits the ml::RandomForest and freezes it into
// one ml::CompiledForest, and every verdict -- classify() is a one-row
// classify_batch() -- is decided from that compiled engine's vote
// fractions, or from the DecisionBackend the fleet engine passes in from
// FleetConfig::backend. The compiled engine makes exactly the pointer
// walk's comparisons, so the verdicts are the pointer-walk verdicts bit
// for bit.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/compiled_forest.h"
#include "ml/random_forest.h"
#include "trace/dataset.h"

namespace libra::core {

class DecisionBackend;  // core/decision_backend.h

struct LibraClassifierConfig {
  // forest.num_threads governs training/batch-inference parallelism:
  // 0 = hardware_concurrency(), 1 = serial legacy behavior. The trained
  // model is bit-identical for any setting (per-tree Rng streams).
  ml::RandomForestConfig forest{};
  // Missing-ACK rule (Sec. 7, issue 3).
  phy::McsIndex no_ack_mcs_threshold = 6;
  double no_ack_ba_overhead_threshold_ms = 10.0;
  // Confidence gate: adaptation (BA/RA) verdicts with a vote fraction below
  // this are demoted to No-Adaptation -- a misprediction costs a sweep or a
  // rate search, doing nothing costs one more observation window. 0
  // disables the gate (the paper's plain arg-max behavior).
  double min_confidence = 0.0;
};

class LibraClassifier {
 public:
  // Validates the config up front (min_confidence finite and >= 0,
  // thresholds finite) and throws std::invalid_argument -- callers like
  // OnlineLibra construct once and retrain many times, so a bad knob must
  // fail at construction, not on the Nth update.
  explicit LibraClassifier(LibraClassifierConfig cfg = {});

  // Train the 3-class model on the (augmented) training dataset. Labels the
  // records (Dataset::labeled3) and forwards to train_labeled().
  void train(const trace::Dataset& dataset, const trace::GroundTruthConfig& gt,
             util::Rng& rng);
  // Fit directly on pre-labeled feature rows -- the single fit path shared
  // by train(), OnlineLibra's sliding-window retrain, and the fleet
  // trainer's candidate fits (core/trainer.h). Freezes the fitted forest
  // into the compiled serving engine. Throws std::invalid_argument on an
  // empty set, a row width other than FeatureVector::kDim, or an
  // out-of-range label.
  void train_labeled(const ml::DataSet& rows, util::Rng& rng);

  // Classify an observation-window feature vector (BA / RA / NA). Window
  // noise is added internally to model the short observation window. A
  // one-row classify_batch() on `rng`.
  trace::Action classify(const trace::FeatureVector& features,
                         util::Rng& rng) const;

  // Batched classification for fleet serving: row i draws its
  // observation-window jitter from rngs[i] (each link's own stream, in row
  // order), then every row's vote fractions come from one pass, then
  // min_confidence gates each row. The pass is `backend`'s vote_batch when
  // one is given (the fleet engine passes FleetConfig::backend), else one
  // CompiledForest::vote_fractions_batch call on the forest's thread pool.
  // Jitter, filtering and gating always stay on this side, so a loopback
  // remote backend serving the same forest is bit-identical to null.
  // Verdicts are bit-identical to N one-row calls consuming the same
  // per-link streams. Throws BackendOutageError when the backend cannot
  // answer -- after the per-row jitter draws have been consumed, so a
  // retried frame replays deterministically.
  std::vector<trace::Action> classify_batch(
      std::span<const trace::FeatureVector> features,
      std::span<util::Rng* const> rngs,
      DecisionBackend* backend = nullptr) const;

  // The missing-ACK fallback rule.
  trace::Action no_ack_action(phy::McsIndex current_mcs,
                              double ba_overhead_ms) const;

  bool trained() const { return trained_; }
  // The fitted model (pointer walk) and its compiled serving form.
  const ml::RandomForest& forest() const { return forest_; }
  const ml::CompiledForest& compiled() const { return compiled_; }

  // Share an external worker pool for (re)training instead of the forest's
  // own lazily created one (e.g. one pool across many live sessions).
  void set_thread_pool(util::ThreadPool* pool) {
    forest_.set_thread_pool(pool);
  }

  static ml::Label to_label(trace::Action a);
  static trace::Action to_action(ml::Label l);

 private:
  // Jitter the window-sensitive features in place from `rng` (3 draws).
  trace::FeatureVector add_window_noise(const trace::FeatureVector& features,
                                        util::Rng& rng) const;
  // Arg-max + confidence gate over per-class vote fractions.
  trace::Action verdict_from_votes(std::span<const double> votes) const;

  LibraClassifierConfig cfg_;
  ml::RandomForest forest_;
  ml::CompiledForest compiled_;
  bool trained_ = false;
};

}  // namespace libra::core
