#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"

namespace libra::core {

namespace {
// Escalation for a failed No-Adaptation verdict: BA below this MCS, RA at or
// above it.
constexpr phy::McsIndex kHindsightBaMcsThreshold = 6;

// Trainer telemetry: the row-stream intake, the off-path fit loop, and the
// swap gates. The swap-latency histogram times install + remote push -- the
// window in which two generations coexist.
struct TrainerMetrics {
  obs::Counter& rows_sampled;
  obs::Counter& rows_dropped;
  obs::Counter& rows_ingested;
  obs::Counter& rows_rejected;  // non-finite features at ingest
  obs::Counter& label_mismatches;
  obs::Counter& fits;
  obs::Counter& swaps_shipped;
  obs::Counter& swaps_rejected;
  obs::Counter& remote_pushes;
  obs::Counter& remote_push_failures;
  obs::Histogram& fit_latency_us;
  obs::Histogram& swap_latency_us;
  obs::Gauge& drift_score;
  obs::Gauge& candidate_acc;
  obs::Gauge& incumbent_acc;
  obs::Gauge& generation;
  obs::Gauge& window_rows;
};
TrainerMetrics& trainer_metrics() {
  obs::Registry& r = obs::Registry::global();
  static TrainerMetrics m{r.counter("trainer.rows_sampled"),
                          r.counter("trainer.rows_dropped"),
                          r.counter("trainer.rows_ingested"),
                          r.counter("trainer.rows_rejected"),
                          r.counter("trainer.label_mismatches"),
                          r.counter("trainer.fits"),
                          r.counter("trainer.swaps_shipped"),
                          r.counter("trainer.swaps_rejected"),
                          r.counter("trainer.remote_pushes"),
                          r.counter("trainer.remote_push_failures"),
                          r.histogram("trainer.fit_latency_us"),
                          r.histogram("trainer.swap_latency_us"),
                          r.gauge("trainer.drift_score"),
                          r.gauge("trainer.candidate_acc"),
                          r.gauge("trainer.incumbent_acc"),
                          r.gauge("trainer.generation"),
                          r.gauge("trainer.window_rows")};
  return m;
}
}  // namespace

trace::Action hindsight_label(trace::Action served, const FrameReport& next) {
  if (served != trace::Action::kBA && served != trace::Action::kRA &&
      served != trace::Action::kNA) {
    throw std::invalid_argument(
        "hindsight_label: out-of-enum served action " +
        std::to_string(static_cast<int>(served)));
  }
  const bool working =
      next.ack && next.goodput_mbps > trace::kWorkingMinTputMbps;
  if (working) return served;
  switch (served) {
    case trace::Action::kBA:
      return trace::Action::kRA;  // the sweep did not fix it: rate problem
    case trace::Action::kRA:
      return trace::Action::kBA;  // the walk did not fix it: beam problem
    default:
      // Doing nothing was wrong; escalate by the missing-ACK rule's shape.
      return next.mcs < kHindsightBaMcsThreshold ? trace::Action::kBA
                                                 : trace::Action::kRA;
  }
}

// ---- RowRing ----

RowRing::RowRing(std::size_t capacity) : cap_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RowRing: capacity must be >= 1");
  }
}

RowRing::Offer RowRing::offer(TrainRow&& row) {
  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  if (!lk.owns_lock()) return Offer::kContended;  // never block the shard
  Offer outcome = Offer::kAccepted;
  if (rows_.size() >= cap_) {
    rows_.pop_front();  // drop-oldest: recent outcomes matter more
    outcome = Offer::kReplacedOldest;
  }
  rows_.push_back(std::move(row));
  return outcome;
}

void RowRing::drain(std::vector<TrainRow>& out) {
  std::lock_guard<std::mutex> lk(mu_);
  out.insert(out.end(), std::make_move_iterator(rows_.begin()),
             std::make_move_iterator(rows_.end()));
  rows_.clear();
}

std::size_t RowRing::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rows_.size();
}

// ---- ModelSlot ----

std::shared_ptr<const ModelSlot::Model> ModelSlot::pin() const {
  std::lock_guard<std::mutex> lk(mu_);
  return model_;
}

std::uint64_t ModelSlot::install(ml::CompiledForest forest) {
  auto model = std::make_shared<Model>();
  model->forest = std::move(forest);
  std::lock_guard<std::mutex> lk(mu_);
  model->generation = ++next_generation_;
  model_ = std::move(model);
  return next_generation_;
}

std::uint64_t ModelSlot::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return model_ ? model_->generation : 0;
}

// ---- SwapBackend ----

double SwapBackend::deadline_ms() const {
  return std::numeric_limits<double>::infinity();
}

std::vector<std::vector<double>> SwapBackend::vote_batch(
    const ml::DataSet& rows) {
  const std::shared_ptr<const ModelSlot::Model> model = slot_->pin();
  if (model == nullptr) {
    throw BackendOutageError("swap backend: no model installed yet");
  }
  // The whole batch walks this one pinned generation, whatever installs
  // land meanwhile.
  return model->forest.vote_fractions_batch(rows);
}

// ---- DriftDetector ----

void DriftDetectorConfig::validate() const {
  if (!(threshold > 0.0)) {
    throw std::invalid_argument(
        "DriftDetectorConfig: threshold must be > 0, got " +
        std::to_string(threshold));
  }
  if (window_rows == 0) {
    throw std::invalid_argument("DriftDetectorConfig: window_rows must be >= 1");
  }
}

DriftDetector::DriftDetector(DriftDetectorConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

void DriftDetector::observe(std::uint64_t rows, std::uint64_t mismatches) {
  if (rows == 0) return;
  if (mismatches > rows) {
    throw std::invalid_argument("DriftDetector: mismatches " +
                                std::to_string(mismatches) + " > rows " +
                                std::to_string(rows));
  }
  chunks_.emplace_back(rows, mismatches);
  rows_ += rows;
  mismatches_ += mismatches;
  // Slide: keep at least window_rows (whole chunks; a chunk straddling the
  // boundary stays until the window can shed it entirely).
  while (!chunks_.empty() && rows_ - chunks_.front().first >= cfg_.window_rows) {
    rows_ -= chunks_.front().first;
    mismatches_ -= chunks_.front().second;
    chunks_.pop_front();
  }
}

double DriftDetector::score() const {
  return rows_ == 0 ? 0.0
                    : static_cast<double>(mismatches_) /
                          static_cast<double>(rows_);
}

void DriftDetector::reset() {
  chunks_.clear();
  rows_ = 0;
  mismatches_ = 0;
}

// ---- FleetTrainer ----

void FleetTrainerConfig::validate() const {
  if (!(sample_rate >= 0.0 && sample_rate <= 1.0)) {
    throw std::invalid_argument(
        "FleetTrainerConfig: sample_rate must be in [0, 1], got " +
        std::to_string(sample_rate));
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument("FleetTrainerConfig: ring_capacity must be >= 1");
  }
  if (min_fit_rows == 0) {
    throw std::invalid_argument("FleetTrainerConfig: min_fit_rows must be >= 1");
  }
  if (window_rows < min_fit_rows) {
    throw std::invalid_argument(
        "FleetTrainerConfig: window_rows (" + std::to_string(window_rows) +
        ") must be >= min_fit_rows (" + std::to_string(min_fit_rows) + ")");
  }
  if (holdout_every < 2) {
    throw std::invalid_argument(
        "FleetTrainerConfig: holdout_every must be >= 2 (1 would starve the "
        "training window), got " + std::to_string(holdout_every));
  }
  if (holdout_rows == 0) {
    throw std::invalid_argument("FleetTrainerConfig: holdout_rows must be >= 1");
  }
  if (min_holdout_rows > holdout_rows) {
    throw std::invalid_argument(
        "FleetTrainerConfig: min_holdout_rows (" +
        std::to_string(min_holdout_rows) + ") must be <= holdout_rows (" +
        std::to_string(holdout_rows) + ")");
  }
  if (!(min_accuracy_gain >= 0.0 && min_accuracy_gain <= 1.0)) {
    throw std::invalid_argument(
        "FleetTrainerConfig: min_accuracy_gain must be in [0, 1], got " +
        std::to_string(min_accuracy_gain));
  }
  if (!(train_period_ms > 0.0)) {
    throw std::invalid_argument(
        "FleetTrainerConfig: train_period_ms must be > 0, got " +
        std::to_string(train_period_ms));
  }
  if (fit_every_rows == 0) {
    throw std::invalid_argument(
        "FleetTrainerConfig: fit_every_rows must be >= 1");
  }
  forest.validate();
  for (const std::int64_t t : swap_at_ticks) {
    if (t < 0) {
      throw std::invalid_argument(
          "FleetTrainerConfig: swap_at_ticks entries must be >= 0, got " +
          std::to_string(t));
    }
  }
  drift.validate();
}

FleetTrainer::FleetTrainer(FleetTrainerConfig cfg)
    : cfg_(std::move(cfg)),
      swap_ticks_(cfg_.swap_at_ticks),
      drift_(cfg_.drift),
      fit_rng_(cfg_.seed) {
  cfg_.validate();
  std::sort(swap_ticks_.begin(), swap_ticks_.end());
  swap_ticks_.erase(std::unique(swap_ticks_.begin(), swap_ticks_.end()),
                    swap_ticks_.end());
}

FleetTrainer::~FleetTrainer() { stop(); }

void FleetTrainer::seed_model(const ml::RandomForest& forest) {
  const std::uint64_t gen =
      slot_.install(ml::CompiledForest(forest));
  trainer_metrics().generation.set(static_cast<double>(gen));
}

void FleetTrainer::attach_producers(std::size_t n) {
  // mu_ orders the ring swap against a free-running ingest; producers must
  // still not be offering concurrently (run_fleet attaches before any
  // shard thread exists).
  std::lock_guard<std::mutex> lk(mu_);
  rings_.clear();
  rings_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    rings_.push_back(std::make_unique<RowRing>(cfg_.ring_capacity));
  }
}

bool FleetTrainer::wants(std::uint32_t link, std::uint64_t seq) const {
  if (cfg_.sample_rate >= 1.0) return true;
  if (cfg_.sample_rate <= 0.0) return false;
  // Stateless hash of (seed, link, decision sequence): the same decision
  // samples identically whatever shard or thread asks.
  const std::uint64_t h = util::splitmix64(
      util::splitmix64(cfg_.seed ^
                       (0x517cc1b727220a95ULL * (std::uint64_t{link} + 1))) ^
      seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < cfg_.sample_rate;
}

void FleetTrainer::offer(std::size_t producer, TrainRow row) {
  TrainerMetrics& metrics = trainer_metrics();
  if (producer >= rings_.size()) {
    throw std::out_of_range("FleetTrainer::offer: producer " +
                            std::to_string(producer) + " of " +
                            std::to_string(rings_.size()));
  }
  rows_sampled_.fetch_add(1, std::memory_order_relaxed);
  metrics.rows_sampled.inc();
  if (rings_[producer]->offer(std::move(row)) != RowRing::Offer::kAccepted) {
    rows_dropped_.fetch_add(1, std::memory_order_relaxed);
    metrics.rows_dropped.inc();
  }
}

void FleetTrainer::on_tick(std::int64_t tick) {
  std::lock_guard<std::mutex> lk(mu_);
  ingest_locked();
  bool due = false;
  while (next_swap_ < swap_ticks_.size() && tick >= swap_ticks_[next_swap_]) {
    ++next_swap_;
    due = true;
  }
  if (due) train_once_locked(/*force=*/true);
}

void FleetTrainer::start() {
  if (pinned_schedule()) {
    throw std::logic_error(
        "FleetTrainer::start: free-running mode is incompatible with a "
        "pinned swap_at_ticks schedule");
  }
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread(&FleetTrainer::thread_main, this);
}

void FleetTrainer::stop() {
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool FleetTrainer::running() const { return thread_.joinable(); }

void FleetTrainer::thread_main() {
  const auto period = std::chrono::duration<double, std::milli>(
      cfg_.train_period_ms);
  while (true) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      if (stop_cv_.wait_for(lk, period, [&] { return stop_requested_; })) {
        return;
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    ingest_locked();
    if (rows_since_fit_ >= cfg_.fit_every_rows &&
        window_.size() >= cfg_.min_fit_rows) {
      train_once_locked(/*force=*/false);
    }
  }
}

std::size_t FleetTrainer::ingest_now() {
  std::lock_guard<std::mutex> lk(mu_);
  return ingest_locked();
}

std::size_t FleetTrainer::ingest_locked() {
  TrainerMetrics& metrics = trainer_metrics();
  drain_buf_.clear();
  for (const std::unique_ptr<RowRing>& ring : rings_) {
    ring->drain(drain_buf_);
  }
  if (drain_buf_.empty()) return 0;
  // Canonicalize: rings are per-shard, so the concatenation order depends
  // on the shard layout; (tick, link) does not.
  std::sort(drain_buf_.begin(), drain_buf_.end(),
            [](const TrainRow& a, const TrainRow& b) {
              return a.tick != b.tick ? a.tick < b.tick : a.link < b.link;
            });
  const std::shared_ptr<const ModelSlot::Model> incumbent = slot_.pin();
  std::uint64_t scored = 0;
  std::uint64_t mismatches = 0;
  std::size_t accepted = 0;
  for (TrainRow& row : drain_buf_) {
    if (!trace::all_finite(row.features)) {
      // A garbage-PHY observation that slipped into the stream must not
      // poison the window or crash the off-path fit.
      metrics.rows_rejected.inc();
      continue;
    }
    ++accepted;
    ++rows_since_fit_;
    if (incumbent != nullptr) {
      ++scored;
      if (incumbent->forest.predict(row.features.v) !=
          LibraClassifier::to_label(row.label)) {
        ++mismatches;
      }
    }
    const std::uint64_t n =
        rows_ingested_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % cfg_.holdout_every == 0) {
      holdout_.push_back(std::move(row));
      while (holdout_.size() > cfg_.holdout_rows) holdout_.pop_front();
    } else {
      window_.push_back(std::move(row));
      while (window_.size() > cfg_.window_rows) window_.pop_front();
    }
  }
  metrics.rows_ingested.inc(accepted);
  metrics.label_mismatches.inc(mismatches);
  metrics.window_rows.set(static_cast<double>(window_.size()));
  drift_.observe(scored, mismatches);
  metrics.drift_score.set(drift_.score());
  return accepted;
}

FleetTrainer::FitOutcome FleetTrainer::train_once(bool force) {
  std::lock_guard<std::mutex> lk(mu_);
  return train_once_locked(force);
}

double FleetTrainer::holdout_accuracy(const ml::CompiledForest& forest,
                                      const std::deque<TrainRow>& holdout) {
  if (holdout.empty()) return 0.0;
  std::size_t correct = 0;
  for (const TrainRow& row : holdout) {
    if (forest.predict(row.features.v) ==
        LibraClassifier::to_label(row.label)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(holdout.size());
}

FleetTrainer::FitOutcome FleetTrainer::train_once_locked(bool force) {
  TrainerMetrics& metrics = trainer_metrics();
  FitOutcome outcome;
  outcome.drift_score = drift_.score();
  rows_since_fit_ = 0;
  if (window_.size() < cfg_.min_fit_rows) {
    outcome.reason = "insufficient window rows (" +
                     std::to_string(window_.size()) + " < " +
                     std::to_string(cfg_.min_fit_rows) + ")";
    return outcome;
  }

  // Fit the candidate through the same path OnlineLibra's single-link
  // retrain uses (LibraClassifier::train_labeled), on a deterministic
  // stream: fit f consumes the f-th fork of Rng(seed), whatever thread
  // runs it.
  ml::DataSet rows(trace::FeatureVector::kDim);
  rows.reserve(window_.size());
  for (const TrainRow& row : window_) {
    rows.add(row.features.v, LibraClassifier::to_label(row.label));
  }
  LibraClassifierConfig cand_cfg;
  cand_cfg.forest = cfg_.forest;
  LibraClassifier candidate(cand_cfg);
  util::Rng fit_stream = fit_rng_.fork();
  {
    const obs::StopWatch fit_watch;
    candidate.train_labeled(rows, fit_stream);
    metrics.fit_latency_us.observe(fit_watch.elapsed_us());
  }
  fits_.fetch_add(1, std::memory_order_relaxed);
  metrics.fits.inc();
  outcome.fitted = true;

  const ml::CompiledForest& compiled = candidate.compiled();
  const std::shared_ptr<const ModelSlot::Model> incumbent = slot_.pin();
  if (holdout_.size() >= cfg_.min_holdout_rows) {
    outcome.candidate_acc = holdout_accuracy(compiled, holdout_);
    outcome.incumbent_acc =
        incumbent ? holdout_accuracy(incumbent->forest, holdout_) : 0.0;
    metrics.candidate_acc.set(outcome.candidate_acc);
    metrics.incumbent_acc.set(outcome.incumbent_acc);
  }

  bool ship = force;
  if (!force) {
    if (holdout_.size() < cfg_.min_holdout_rows) {
      outcome.reason = "insufficient holdout rows (" +
                       std::to_string(holdout_.size()) + " < " +
                       std::to_string(cfg_.min_holdout_rows) + ")";
    } else if (!drift_.drifted()) {
      outcome.reason = "no drift (score " + std::to_string(outcome.drift_score) +
                       " < threshold " +
                       std::to_string(cfg_.drift.threshold) + ")";
    } else if (incumbent != nullptr &&
               outcome.candidate_acc <
                   outcome.incumbent_acc + cfg_.min_accuracy_gain) {
      outcome.reason = "accuracy gate (candidate " +
                       std::to_string(outcome.candidate_acc) +
                       " < incumbent " + std::to_string(outcome.incumbent_acc) +
                       " + " + std::to_string(cfg_.min_accuracy_gain) + ")";
    } else {
      ship = true;
    }
  }

  if (!ship) {
    swaps_rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics.swaps_rejected.inc();
    return outcome;
  }

  const obs::StopWatch swap_watch;
  outcome.generation = slot_.install(ml::CompiledForest(compiled));
  if (remote_push_) {
    metrics.remote_pushes.inc();
    if (!remote_push_(candidate.forest())) {
      metrics.remote_push_failures.inc();
    }
  }
  metrics.swap_latency_us.observe(swap_watch.elapsed_us());
  outcome.shipped = true;
  swaps_shipped_.fetch_add(1, std::memory_order_relaxed);
  metrics.swaps_shipped.inc();
  metrics.generation.set(static_cast<double>(outcome.generation));
  drift_.reset();  // the new incumbent starts with a clean slate
  metrics.drift_score.set(drift_.score());
  return outcome;
}

void FleetTrainer::set_remote_push(
    std::function<bool(const ml::RandomForest&)> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  remote_push_ = std::move(fn);
}

double FleetTrainer::drift_score() const {
  std::lock_guard<std::mutex> lk(mu_);
  return drift_.score();
}

std::size_t FleetTrainer::window_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return window_.size();
}

std::size_t FleetTrainer::holdout_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return holdout_.size();
}

}  // namespace libra::core
