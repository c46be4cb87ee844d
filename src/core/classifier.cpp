#include "core/classifier.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/decision_backend.h"
#include "obs/span.h"

namespace libra::core {

namespace {
// Observation-window feature noise: LiBRA decides on 40 ms windows, which
// are noisier than the 1 s training traces (Sec. 7, issue 2). Sigmas are the
// per-frame jitters scaled by 1/sqrt(window frames).
constexpr double kWindowSnrJitterDb = 0.28;
constexpr double kWindowNoiseJitterDb = 1.06;
constexpr double kWindowCdrJitter = 0.011;

// Inference-serving telemetry: how many rows ride each batch, how long one
// batched pass takes, and the single-row rate for comparison.
struct ClassifierMetrics {
  obs::Counter& classifies;
  obs::Counter& batch_calls;
  obs::Counter& rows;
  obs::Counter& rejected_rows;
  obs::Histogram& batch_size;
  obs::Histogram& batch_latency_us;
};
ClassifierMetrics& classifier_metrics() {
  obs::Registry& r = obs::Registry::global();
  static ClassifierMetrics m{r.counter("classifier.classifies"),
                             r.counter("classifier.batch_calls"),
                             r.counter("classifier.rows"),
                             r.counter("classifier.rejected_rows"),
                             r.histogram("classifier.batch_size"),
                             r.histogram("classifier.batch_latency_us")};
  return m;
}
}  // namespace

LibraClassifier::LibraClassifier(LibraClassifierConfig cfg)
    : cfg_(cfg), forest_(cfg.forest) {
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument("LibraClassifierConfig: " + what);
  };
  // Values > 1 are a deliberate "demote every adaptation to NA" setting
  // (no vote fraction can reach them), so only reject nonsense below 0.
  require(std::isfinite(cfg_.min_confidence) && cfg_.min_confidence >= 0.0,
          "min_confidence must be finite and >= 0, got " +
              std::to_string(cfg_.min_confidence));
  require(std::isfinite(cfg_.no_ack_ba_overhead_threshold_ms),
          "no_ack_ba_overhead_threshold_ms must be finite");
}

ml::Label LibraClassifier::to_label(trace::Action a) {
  switch (a) {
    case trace::Action::kBA: return 0;
    case trace::Action::kRA: return 1;
    case trace::Action::kNA: return 2;
  }
  // Out-of-enum values (corrupted trace rows, casts from raw ints) must not
  // silently train as label 0 == Beam Adaptation.
  throw std::invalid_argument(
      "LibraClassifier::to_label: out-of-enum trace::Action " +
      std::to_string(static_cast<int>(a)));
}

trace::Action LibraClassifier::to_action(ml::Label l) {
  switch (l) {
    case 0: return trace::Action::kBA;
    case 1: return trace::Action::kRA;
    default: return trace::Action::kNA;
  }
}

void LibraClassifier::train(const trace::Dataset& dataset,
                            const trace::GroundTruthConfig& gt,
                            util::Rng& rng) {
  ml::DataSet train(trace::FeatureVector::kDim);
  for (const trace::LabeledEntry& e : dataset.labeled3(gt)) {
    train.add(e.x.v, to_label(e.y));
  }
  train_labeled(train, rng);
}

void LibraClassifier::train_labeled(const ml::DataSet& rows, util::Rng& rng) {
  if (rows.empty()) throw std::invalid_argument("empty training dataset");
  if (rows.num_features() != trace::FeatureVector::kDim) {
    throw std::invalid_argument(
        "train_labeled: expected " +
        std::to_string(trace::FeatureVector::kDim) + " features per row, got " +
        std::to_string(rows.num_features()));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows.label(i) < 0 || rows.label(i) > 2) {
      throw std::invalid_argument("train_labeled: label " +
                                  std::to_string(rows.label(i)) +
                                  " out of the 3-class range at row " +
                                  std::to_string(i));
    }
  }
  forest_.fit(rows, rng);
  // OnlineLibra's sliding-window retrain and the fleet trainer's candidate
  // fits ride this same path, so every refit model is recompiled here.
  compiled_ = ml::CompiledForest(forest_);
  trained_ = true;
}

trace::FeatureVector LibraClassifier::add_window_noise(
    const trace::FeatureVector& features, util::Rng& rng) const {
  trace::FeatureVector noisy = features;
  noisy.v[0] += rng.gaussian(0.0, kWindowSnrJitterDb);
  noisy.v[2] += rng.gaussian(0.0, kWindowNoiseJitterDb);
  noisy.v[5] += rng.gaussian(0.0, kWindowCdrJitter);
  return noisy;
}

trace::Action LibraClassifier::verdict_from_votes(
    std::span<const double> votes) const {
  // First-max arg-max: identical tie-breaking to RandomForest::predict's
  // max_element over integer vote counts (fractions are counts / num_trees,
  // a monotonic map), so gated and ungated paths agree bit-for-bit.
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  const trace::Action a = to_action(static_cast<ml::Label>(best));
  if (a != trace::Action::kNA && votes[best] < cfg_.min_confidence) {
    return trace::Action::kNA;  // not sure enough to pay for adaptation
  }
  return a;
}

trace::Action LibraClassifier::classify(const trace::FeatureVector& features,
                                        util::Rng& rng) const {
  classifier_metrics().classifies.inc();
  util::Rng* const stream = &rng;
  return classify_batch({&features, 1}, {&stream, 1}).front();
}

std::vector<trace::Action> LibraClassifier::classify_batch(
    std::span<const trace::FeatureVector> features,
    std::span<util::Rng* const> rngs, DecisionBackend* backend) const {
  if (!trained_) throw std::logic_error("classifier not trained");
  if (features.size() != rngs.size()) {
    throw std::invalid_argument(
        "classify_batch: " + std::to_string(features.size()) +
        " feature rows but " + std::to_string(rngs.size()) + " rng streams");
  }
  ClassifierMetrics& metrics = classifier_metrics();
  OBS_SPAN("classifier.classify_batch", &metrics.batch_latency_us);
  metrics.batch_calls.inc();
  metrics.rows.inc(features.size());
  metrics.batch_size.observe(static_cast<double>(features.size()));
  // Jitter serially in row order -- each row consumes only its own link's
  // stream, so the batch boundary never changes what any link draws.
  // Non-finite rows never reach the forest: the whole call throws naming
  // the row (the controller degrades such observations before planning, so
  // one reaching here is a caller bug).
  ml::DataSet rows(trace::FeatureVector::kDim);
  rows.reserve(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (rngs[i] == nullptr) {
      throw std::invalid_argument("classify_batch: null rng for row " +
                                  std::to_string(i));
    }
    if (!trace::all_finite(features[i])) {
      metrics.rejected_rows.inc();
      throw std::invalid_argument(
          "classify_batch: non-finite feature vector at row " +
          std::to_string(i));
    }
    rows.add(add_window_noise(features[i], *rngs[i]).v, 0);
  }
  // One pooled pass over every link's row: through the backend
  // when one is given (possibly a socket round trip), else the
  // in-process forest. The jitter above has already consumed each link's
  // draws either way, so a BackendOutageError thrown here leaves the
  // streams exactly where a successful batch would have.
  std::vector<std::vector<double>> votes;
  if (backend != nullptr) {
    if (!rows.empty()) votes = backend->vote_batch(rows);
    if (votes.size() != rows.size()) {
      throw BackendOutageError(
          std::string("classify_batch: backend '") +
          std::string(backend->name()) + "' returned " +
          std::to_string(votes.size()) + " vote rows for " +
          std::to_string(rows.size()));
    }
  } else {
    votes = compiled_.vote_fractions_batch(rows, forest_.pool());
  }
  std::vector<trace::Action> verdicts;
  verdicts.reserve(votes.size());
  for (const std::vector<double>& v : votes) {
    verdicts.push_back(verdict_from_votes(v));
  }
  return verdicts;
}

trace::Action LibraClassifier::no_ack_action(phy::McsIndex current_mcs,
                                             double ba_overhead_ms) const {
  if (current_mcs < cfg_.no_ack_mcs_threshold) return trace::Action::kBA;
  return ba_overhead_ms <= cfg_.no_ack_ba_overhead_threshold_ms
             ? trace::Action::kBA
             : trace::Action::kRA;
}

}  // namespace libra::core
