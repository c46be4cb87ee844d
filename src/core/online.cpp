#include "core/online.h"

#include <stdexcept>
#include <string>

namespace libra::core {

OnlineLibra::OnlineLibra(OnlineLibraConfig cfg)
    : cfg_(cfg), classifier_(cfg.classifier) {
  if (cfg_.window_size < 1) {
    throw std::invalid_argument(
        "OnlineLibraConfig: window_size must be >= 1, got " +
        std::to_string(cfg_.window_size));
  }
  if (cfg_.retrain_every < 1) {
    throw std::invalid_argument(
        "OnlineLibraConfig: retrain_every must be >= 1, got " +
        std::to_string(cfg_.retrain_every));
  }
  if (cfg_.local_weight < 1) {
    throw std::invalid_argument(
        "OnlineLibraConfig: local_weight must be >= 1, got " +
        std::to_string(cfg_.local_weight));
  }
}

void OnlineLibra::relabel_seed(const trace::GroundTruthConfig& gt) {
  seed_head_rows_ = ml::DataSet(trace::FeatureVector::kDim);
  seed_tail_rows_ = ml::DataSet(trace::FeatureVector::kDim);
  seed_head_rows_.reserve(seed_.records.size());
  seed_tail_rows_.reserve(seed_.na_records.size());
  const std::vector<trace::LabeledEntry> entries = seed_.labeled3(gt);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ml::DataSet& target =
        i < seed_.records.size() ? seed_head_rows_ : seed_tail_rows_;
    target.add(entries[i].x.v, LibraClassifier::to_label(entries[i].y));
  }
  labeled_gt_ = gt;
}

void OnlineLibra::seed(const trace::Dataset& offline,
                       const trace::GroundTruthConfig& gt, util::Rng& rng) {
  seed_ = offline;
  relabel_seed(gt);
  // Head + tail is exactly labeled3's row order over the seed dataset, so
  // this is train(seed_, gt, rng) without labeling the campaign twice.
  ml::DataSet rows(trace::FeatureVector::kDim);
  rows.reserve(seed_head_rows_.size() + seed_tail_rows_.size());
  for (std::size_t i = 0; i < seed_head_rows_.size(); ++i) {
    rows.add(seed_head_rows_.row(i), seed_head_rows_.label(i));
  }
  for (std::size_t i = 0; i < seed_tail_rows_.size(); ++i) {
    rows.add(seed_tail_rows_.row(i), seed_tail_rows_.label(i));
  }
  classifier_.train_labeled(rows, rng);
}

void OnlineLibra::observe(const trace::CaseRecord& record,
                          const trace::GroundTruthConfig& gt,
                          util::Rng& rng) {
  window_.push_back(record);
  while (static_cast<int>(window_.size()) > cfg_.window_size) {
    window_.pop_front();
  }
  ++observed_;
  if (++since_retrain_ >= cfg_.retrain_every) {
    since_retrain_ = 0;
    retrain(gt, rng);
  }
}

void OnlineLibra::retrain(const trace::GroundTruthConfig& gt, util::Rng& rng) {
  if (labeled_gt_ != gt) {
    relabel_seed(gt);
  }
  // Label only the (small) window; the weighted duplication mirrors the
  // legacy combined-dataset append, record by record.
  trace::Dataset win;
  for (const trace::CaseRecord& rec : window_) {
    for (int w = 0; w < cfg_.local_weight; ++w) {
      (rec.forced_na ? win.na_records : win.records).push_back(rec);
    }
  }
  const std::vector<trace::LabeledEntry> win_entries = win.labeled3(gt);
  const std::size_t win_head = win.records.size();

  // Row order must replicate the legacy path exactly (bootstrap sampling is
  // row-order sensitive): seed impairment rows, weighted window impairment
  // rows, seed NA rows, weighted window forced-NA rows.
  ml::DataSet rows(trace::FeatureVector::kDim);
  rows.reserve(seed_head_rows_.size() + seed_tail_rows_.size() +
               win_entries.size());
  for (std::size_t i = 0; i < seed_head_rows_.size(); ++i) {
    rows.add(seed_head_rows_.row(i), seed_head_rows_.label(i));
  }
  for (std::size_t i = 0; i < win_head; ++i) {
    rows.add(win_entries[i].x.v, LibraClassifier::to_label(win_entries[i].y));
  }
  for (std::size_t i = 0; i < seed_tail_rows_.size(); ++i) {
    rows.add(seed_tail_rows_.row(i), seed_tail_rows_.label(i));
  }
  for (std::size_t i = win_head; i < win_entries.size(); ++i) {
    rows.add(win_entries[i].x.v, LibraClassifier::to_label(win_entries[i].y));
  }
  classifier_.train_labeled(rows, rng);
  ++retrains_;
}

}  // namespace libra::core
