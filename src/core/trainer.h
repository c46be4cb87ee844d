// Fleet-scale online learning (ROADMAP item 5): a background trainer that
// keeps the deployed forest current without ever pausing the serving path.
//
// Three pieces, wired through sim::run_fleet via FleetConfig::trainer:
//
//   row stream   During scatter, each shard samples a deterministic,
//                seeded subset of its inference decisions (wants() is a
//                pure hash of (trainer seed, link id, per-link decision
//                sequence) -- it never touches the link Rng streams, so an
//                attached trainer whose gates never fire is bit-identical
//                to no trainer at all). A sampled decision resolves into a
//                TrainRow at the link's NEXT observe, when the new frame's
//                report reveals the outcome in hindsight
//                (hindsight_label), and is offered to a bounded per-shard
//                RowRing: drop-oldest when full, try_lock on contention --
//                the gather/decide/scatter path never blocks on training.
//
//   background   FleetTrainer::start() spins a thread that periodically
//   trainer      drains the rings into a sliding window (+ an every-k-th
//                holdout slice the candidate never trains on), refits a
//                candidate forest through LibraClassifier::train_labeled
//                -- the same fit path OnlineLibra's single-link retrain
//                rides -- and compiles it off-path.
//
//   swap gates   A candidate ships only when the DriftDetector (windowed
//                incumbent-vs-label mismatch rate, plus the fleet-level
//                degraded-decision fraction folded in from obs::Aggregator
//                series) reports drift AND the candidate beats the
//                incumbent on the holdout by min_accuracy_gain. Shipping
//                installs the compiled candidate into the generation-
//                tagged ModelSlot -- SwapBackend pins the slot once per
//                vote_batch, so every batch is served wholly by one model
//                generation and a swap never pauses serving -- and
//                publishes to remote daemons through the ModelPush
//                callback (set_remote_push, wired to
//                rpc::DecisionClient::push_model at the CLI layer).
//
// Determinism contract: free-running mode (start()) makes no bit-replay
// promise -- swaps land whenever the thread ships them. The test mode pins
// the schedule instead: with swap_at_ticks non-empty, run_fleet calls
// on_tick() in the serial region after every tick's shard barrier; the
// trainer drains every ring each tick (ingestion order is canonicalized by
// sorting on (tick, link), so it is independent of the shard layout) and
// force-fits + swaps exactly at the scheduled ticks from fit streams
// forked off Rng(seed) in fit order. With a fixed (fleet seed, trainer
// seed, swap_at_ticks) the run replays bit-for-bit at any
// (shards, num_threads) -- proven in tests/trainer_test.cpp, which also
// asserts trainer.rows_dropped stays 0 (a drop would break replay; the
// per-tick drain makes capacity a non-issue in pinned mode).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/controller.h"
#include "core/decision_backend.h"
#include "ml/compiled_forest.h"
#include "ml/random_forest.h"
#include "trace/features.h"
#include "util/rng.h"

namespace libra::obs {
class Aggregator;  // obs/aggregate.h
}

namespace libra::core {

// splitmix64 finalizer: the stateless mixer behind the row sampler.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One sampled (features, outcome-label) observation from the fleet.
struct TrainRow {
  std::int64_t tick = 0;   // fleet tick the outcome resolved on
  std::uint32_t link = 0;  // global link id (ingestion sort key with tick)
  trace::FeatureVector features{};  // decision-time features, un-jittered
  trace::Action label = trace::Action::kNA;  // hindsight-correct action
};

// Hindsight labeling: what the right call was, judged by the next frame.
struct HindsightConfig {
  // The served verdict counts as correct when the next frame ACKs at or
  // above this goodput (the working-MCS rule's throughput arm).
  double min_tput_mbps = 150.0;
  // Escalation for a failed No-Adaptation verdict: BA below this MCS, RA at
  // or above it (the missing-ACK rule's shape).
  phy::McsIndex ba_mcs_threshold = 6;
};

// The label for a decision that served `served` and then saw `next`: the
// served action itself when the link kept working, else the escalation the
// failure implies (a failed BA should have been RA and vice versa; a failed
// NA should have adapted, BA/RA by MCS). Pure and deterministic.
trace::Action hindsight_label(trace::Action served, const FrameReport& next,
                              const HindsightConfig& cfg = {});

// Bounded row buffer between one producer (a shard's scatter) and the
// trainer. offer() never blocks: it try_locks, dropping the row on
// contention, and drops the oldest row when full -- both counted by the
// caller via the return value. drain() splices everything out.
class RowRing {
 public:
  explicit RowRing(std::size_t capacity);

  enum class Offer { kAccepted, kReplacedOldest, kContended };
  Offer offer(TrainRow&& row);
  void drain(std::vector<TrainRow>& out);
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::deque<TrainRow> rows_;
  std::size_t cap_;
};

// The generation-tagged serving model: a compiled forest published with an
// atomic shared_ptr swap. Readers pin() once per batch; install() bumps the
// generation and replaces the pointer -- in-flight batches finish on the
// model they pinned, so a swap never tears or pauses a batch.
class ModelSlot {
 public:
  struct Model {
    ml::CompiledForest forest;
    std::uint64_t generation = 0;
  };

  // The current model, or nullptr before the first install.
  std::shared_ptr<const Model> pin() const;
  // Publish a new model; returns its generation (1 for the first install).
  std::uint64_t install(ml::CompiledForest forest);
  // Generation of the current model; 0 while empty.
  std::uint64_t generation() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Model> model_;
  std::uint64_t next_generation_ = 0;
};

// DecisionBackend over a ModelSlot: the fleet serves through whatever model
// the trainer last shipped. vote_batch pins the slot exactly once, so every
// batch is answered wholly by one generation. The votes are exact tree
// counts / num_trees -- a slot seeded from the same forest a classifier
// serves is bit-identical to in-process serving.
class SwapBackend final : public DecisionBackend {
 public:
  explicit SwapBackend(const ModelSlot* slot) : slot_(slot) {}

  std::string_view name() const override { return "swap"; }
  bool local() const override { return true; }
  bool available() override { return slot_->generation() > 0; }
  double deadline_ms() const override;
  // Throws BackendOutageError while the slot is empty (degradation-ladder
  // rung 2, like any backend outage).
  std::vector<std::vector<double>> vote_batch(const ml::DataSet& rows) override;

 private:
  const ModelSlot* slot_;  // non-owning
};

struct DriftDetectorConfig {
  // score() >= threshold counts as drift (a gate a candidate must pass).
  // Values > 1 disable the gate permanently (score is a fraction).
  double threshold = 0.25;
  // Ingested rows folded into the windowed mismatch rate.
  std::size_t window_rows = 2048;

  void validate() const;  // throws std::invalid_argument
};

// Two drift signals, folded to one score (their max):
//   - the windowed fraction of ingested rows where the incumbent's
//     prediction disagrees with the hindsight label (fed by observe());
//   - the fleet-level degraded-decision fraction from the obs::Aggregator
//     ring series (fed by feed_degraded_fraction() -- outages and ladder
//     fallbacks are drift the label stream cannot see).
class DriftDetector {
 public:
  explicit DriftDetector(DriftDetectorConfig cfg = {});

  void observe(std::uint64_t rows, std::uint64_t mismatches);
  void feed_degraded_fraction(double fraction);

  double mismatch_fraction() const;
  double degraded_fraction() const { return degraded_; }
  double score() const;
  bool drifted() const { return score() >= cfg_.threshold; }
  // Forget everything (called after a shipped swap: the new incumbent
  // starts with a clean slate).
  void reset();

 private:
  DriftDetectorConfig cfg_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> chunks_;
  std::uint64_t rows_ = 0;
  std::uint64_t mismatches_ = 0;
  double degraded_ = 0.0;
};

struct FleetTrainerConfig {
  // Sampler + candidate-fit streams (fit f uses the f-th fork of Rng(seed)).
  std::uint64_t seed = 1;
  // Fraction of inference decisions sampled into the row stream.
  double sample_rate = 0.05;
  // Per-producer (per-shard) ring capacity.
  std::size_t ring_capacity = 4096;
  // Sliding training window, in rows (oldest rows fall off).
  std::size_t window_rows = 4096;
  // Every holdout_every-th ingested row lands in the holdout slice instead
  // of the window; the candidate never trains on it.
  std::size_t holdout_every = 8;
  std::size_t holdout_rows = 512;  // holdout bound (oldest rows fall off)
  // Fit preconditions: train_once() reports instead of fitting below these.
  std::size_t min_fit_rows = 64;
  std::size_t min_holdout_rows = 32;
  // Accuracy gate: candidate holdout accuracy must beat the incumbent's by
  // at least this margin to ship.
  double min_accuracy_gain = 0.02;
  DriftDetectorConfig drift{};
  // Candidate model family.
  ml::RandomForestConfig forest{};
  // Free-running cadence: the background thread ingests this often and fits
  // once fit_every_rows new rows have arrived since the last fit.
  double train_period_ms = 250.0;
  std::size_t fit_every_rows = 256;
  // Pinned deterministic schedule (tests): non-empty disables start() and
  // makes run_fleet call on_tick() serially after every tick; the trainer
  // force-fits + swaps exactly after the listed ticks (0-based, sorted and
  // deduplicated internally). See the determinism contract above.
  std::vector<std::int64_t> swap_at_ticks;
  HindsightConfig hindsight{};

  void validate() const;  // throws std::invalid_argument
};

// The background trainer. Thread-safety: offer() is called from shard
// worker threads and touches only its ring + wait-free counters; everything
// that mutates the window/holdout/detector (ingest_now, train_once,
// on_tick, consume_aggregator) serializes on one internal mutex -- called
// either from the background thread (free-running) or from run_fleet's
// serial region (pinned). Reads (generation, window_size, ...) are safe
// from any thread.
class FleetTrainer {
 public:
  explicit FleetTrainer(FleetTrainerConfig cfg = {});
  ~FleetTrainer();  // stop()s the background thread if running

  FleetTrainer(const FleetTrainer&) = delete;
  FleetTrainer& operator=(const FleetTrainer&) = delete;

  const FleetTrainerConfig& config() const { return cfg_; }

  // Install the incumbent from an already fitted forest (generation 1).
  // Throws std::invalid_argument / std::logic_error via CompiledForest when
  // the forest is unfitted or unpackable.
  void seed_model(const ml::RandomForest& forest);

  // Serving access: point FleetConfig::backend (or a classifier's backend)
  // here and every batch rides the trainer's current generation.
  DecisionBackend* backend() { return &backend_; }
  const ModelSlot& slot() const { return slot_; }
  std::uint64_t generation() const { return slot_.generation(); }

  // --- producer side (the fleet engine) ---

  // Size the ring set: one ring per producer (run_fleet passes its shard
  // count). Discards any undrained rows. Not thread-safe against offer().
  void attach_producers(std::size_t n);
  std::size_t producers() const { return rings_.size(); }
  // Pure sampling decision for a link's seq-th inference decision --
  // stateless, so any shard layout asks the same question and gets the
  // same answer.
  bool wants(std::uint32_t link, std::uint64_t seq) const;
  // Offer a sampled row from producer p's thread. Never blocks; drops are
  // counted (trainer.rows_dropped) and visible via rows_dropped().
  void offer(std::size_t producer, TrainRow row);

  // --- pinned deterministic mode ---

  bool pinned_schedule() const { return !swap_ticks_.empty(); }
  // Drain every ring (canonical (tick, link) order) and, when `tick` is a
  // scheduled swap tick, force-fit and install the candidate. Called by
  // run_fleet after the tick's shard barrier; callable from tests.
  void on_tick(std::int64_t tick);

  // --- free-running mode ---

  // Spin the background ingest/fit thread. Throws std::logic_error when a
  // pinned schedule is configured (the two modes are mutually exclusive).
  void start();
  void stop();
  bool running() const;

  // --- manual control (tests, benches) ---

  // Drain all rings into the window/holdout now; returns rows ingested.
  std::size_t ingest_now();

  struct FitOutcome {
    bool fitted = false;
    bool shipped = false;
    std::uint64_t generation = 0;  // installed generation when shipped
    double drift_score = 0.0;
    double candidate_acc = 0.0;
    double incumbent_acc = 0.0;
    std::string reason;  // why the candidate did not ship (empty if it did)
  };
  // Fit a candidate on the current window and run it through the gates.
  // force=true ships unconditionally once fitted (the pinned-schedule
  // path). Off the serving path by construction.
  FitOutcome train_once(bool force = false);

  // Fold the fleet-level degraded-decision fraction from an aggregator's
  // ring series into the drift detector (controller.degraded_decisions rate
  // over fleet.link_frames rate, most recent roll-up point).
  void consume_aggregator(const obs::Aggregator& aggregator);

  // Remote publication: called with every shipped candidate (after the
  // local install); return false to count a push failure. Wired to
  // rpc::DecisionClient::push_model by the CLI. Not thread-safe against a
  // concurrent ship -- set it before serving starts.
  void set_remote_push(std::function<bool(const ml::RandomForest&)> fn);

  // --- stats (cheap, callable from any thread) ---

  std::uint64_t rows_sampled() const { return rows_sampled_.load(); }
  std::uint64_t rows_dropped() const { return rows_dropped_.load(); }
  std::uint64_t rows_ingested() const { return rows_ingested_.load(); }
  std::uint64_t fits() const { return fits_.load(); }
  std::uint64_t swaps_shipped() const { return swaps_shipped_.load(); }
  std::uint64_t swaps_rejected() const { return swaps_rejected_.load(); }
  double drift_score() const;
  std::size_t window_size() const;
  std::size_t holdout_size() const;

 private:
  std::size_t ingest_locked();
  FitOutcome train_once_locked(bool force);
  void thread_main();
  static double holdout_accuracy(const ml::CompiledForest& forest,
                                 const std::deque<TrainRow>& holdout);

  FleetTrainerConfig cfg_;
  std::vector<std::int64_t> swap_ticks_;  // sorted, deduplicated
  std::size_t next_swap_ = 0;

  std::vector<std::unique_ptr<RowRing>> rings_;
  ModelSlot slot_;
  SwapBackend backend_{&slot_};

  mutable std::mutex mu_;  // window/holdout/detector/fit state
  std::deque<TrainRow> window_;
  std::deque<TrainRow> holdout_;
  DriftDetector drift_;
  util::Rng fit_rng_;
  std::uint64_t rows_since_fit_ = 0;
  std::vector<TrainRow> drain_buf_;
  std::function<bool(const ml::RandomForest&)> remote_push_;

  std::atomic<std::uint64_t> rows_sampled_{0};
  std::atomic<std::uint64_t> rows_dropped_{0};
  std::atomic<std::uint64_t> rows_ingested_{0};
  std::atomic<std::uint64_t> fits_{0};
  std::atomic<std::uint64_t> swaps_shipped_{0};
  std::atomic<std::uint64_t> swaps_rejected_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace libra::core
