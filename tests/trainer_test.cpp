// Fleet online learning (core/trainer.h): the sampled row stream, the
// drift/accuracy swap gates, and the zero-pause generation-tagged model
// swap -- plus the determinism contract that makes the whole subsystem
// replayable: a pinned swap schedule must reproduce bit-for-bit at any
// (shards, num_threads), and an attached trainer whose gates never fire
// must be indistinguishable from no trainer at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/classifier.h"
#include "core/controller.h"
#include "core/decision_backend.h"
#include "core/online.h"
#include "core/trainer.h"
#include "env/registry.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/fleet.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::make_record;

// ---------- synthetic row fixtures ----------

// Three cleanly separated feature clusters, one per action class: a forest
// fit on (cluster(a), a) pairs predicts the cluster's action essentially
// perfectly, which lets the gate tests dial mismatch rates by relabeling.
trace::FeatureVector cluster_features(trace::Action cluster, int i) {
  const double c =
      static_cast<double>(core::LibraClassifier::to_label(cluster));
  trace::FeatureVector f;
  f.v = {2.0 + 4.0 * c + 0.01 * (i % 10),
         1.0 + c,
         0.5 * c,
         3.0 - c,
         0.1 * (i % 7),
         2.0 + 0.2 * c,
         1.0};
  return f;
}

core::TrainRow make_row(std::int64_t tick, std::uint32_t link,
                        trace::Action cluster, trace::Action label, int i) {
  core::TrainRow row;
  row.tick = tick;
  row.link = link;
  row.features = cluster_features(cluster, i);
  row.label = label;
  return row;
}

trace::Action action_of(int i) {
  switch (i % 3) {
    case 0: return trace::Action::kBA;
    case 1: return trace::Action::kRA;
    default: return trace::Action::kNA;
  }
}

trace::Action rotate(trace::Action a) {
  return core::LibraClassifier::to_action(
      (core::LibraClassifier::to_label(a) + 1) % 3);
}

// A forest that has learned the cluster -> action mapping (the "accurate
// incumbent" of the gate tests).
ml::RandomForest make_cluster_forest(int num_trees = 15,
                                     std::uint64_t seed = 3) {
  ml::DataSet ds(trace::FeatureVector::kDim);
  for (int i = 0; i < 150; ++i) {
    const trace::Action a = action_of(i);
    ds.add(cluster_features(a, i).v, core::LibraClassifier::to_label(a));
  }
  ml::RandomForestConfig cfg;
  cfg.num_trees = num_trees;
  ml::RandomForest forest(cfg);
  util::Rng rng(seed);
  forest.fit(ds, rng);
  return forest;
}

core::FleetTrainerConfig small_trainer_cfg() {
  core::FleetTrainerConfig cfg;
  cfg.seed = 11;
  cfg.ring_capacity = 4096;
  cfg.window_rows = 1024;
  return cfg;
}

// The tree count of every candidate the trainer fits.
constexpr int kCandidateTrees = core::LibraClassifierConfig{}.forest.num_trees;

// Offer `n` rows whose labels come from `label_of(cluster, i)`, advancing
// the shared tick cursor so ingestion order stays canonical.
template <typename LabelFn>
void offer_rows(core::FleetTrainer& trainer, int n, std::int64_t* tick,
                LabelFn label_of) {
  for (int i = 0; i < n; ++i) {
    const trace::Action cluster = action_of(i);
    trainer.offer(0, make_row((*tick)++, static_cast<std::uint32_t>(i % 16),
                              cluster, label_of(cluster, i), i));
  }
}

void offer_consistent(core::FleetTrainer& trainer, int n, std::int64_t* tick) {
  offer_rows(trainer, n, tick,
             [](trace::Action cluster, int) { return cluster; });
}

void offer_rotated(core::FleetTrainer& trainer, int n, std::int64_t* tick) {
  offer_rows(trainer, n, tick,
             [](trace::Action cluster, int) { return rotate(cluster); });
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

// ---------- config validation ----------

TEST(TrainerConfig, ValidationThrows) {
  {
    core::FleetTrainerConfig cfg = small_trainer_cfg();
    cfg.sample_rate = 1.5;
    EXPECT_THROW(core::FleetTrainer{cfg}, std::invalid_argument);
  }
  {
    core::FleetTrainerConfig cfg = small_trainer_cfg();
    cfg.ring_capacity = 0;
    EXPECT_THROW(core::FleetTrainer{cfg}, std::invalid_argument);
  }
  {
    core::FleetTrainerConfig cfg = small_trainer_cfg();
    cfg.window_rows = core::kMinFitRows - 1;
    EXPECT_THROW(core::FleetTrainer{cfg}, std::invalid_argument);
    cfg.window_rows = core::kMinFitRows;
    EXPECT_NO_THROW(core::FleetTrainer{cfg});
  }
  {
    core::FleetTrainerConfig cfg = small_trainer_cfg();
    cfg.swap_at_ticks = {10, -1};
    EXPECT_THROW(core::FleetTrainer{cfg}, std::invalid_argument);
  }
}

// The hoisted LibraClassifierConfig validation: a bad config must throw at
// construction, not surface as NaN jitter deep inside a fleet run.
TEST(TrainerConfig, ClassifierConfigValidatedAtConstruction) {
  {
    core::LibraClassifierConfig cfg;
    cfg.min_confidence = -0.5;
    EXPECT_THROW(core::LibraClassifier{cfg}, std::invalid_argument);
  }
  {
    core::LibraClassifierConfig cfg;
    cfg.min_confidence = std::numeric_limits<double>::infinity();
    EXPECT_THROW(core::LibraClassifier{cfg}, std::invalid_argument);
  }
}

TEST(TrainerConfig, TrainLabeledRejectsBadRows) {
  core::LibraClassifier clf{core::LibraClassifierConfig{}};
  util::Rng rng(1);
  ml::DataSet empty(trace::FeatureVector::kDim);
  EXPECT_THROW(clf.train_labeled(empty, rng), std::invalid_argument);

  ml::DataSet wrong_dim(3);
  wrong_dim.add(std::vector<double>{1.0, 2.0, 3.0}, 0);
  EXPECT_THROW(clf.train_labeled(wrong_dim, rng), std::invalid_argument);

  ml::DataSet bad_label(trace::FeatureVector::kDim);
  bad_label.add(cluster_features(trace::Action::kBA, 0).v, 5);
  EXPECT_THROW(clf.train_labeled(bad_label, rng), std::invalid_argument);
}

// ---------- hindsight labeling ----------

TEST(Hindsight, LabelRules) {
  // Working above 150 Mbps; a failed NA escalates to BA below MCS 6.
  core::FrameReport good;
  good.ack = true;
  good.goodput_mbps = 200.0;
  // Working link: whatever was served was right.
  EXPECT_EQ(core::hindsight_label(trace::Action::kBA, good),
            trace::Action::kBA);
  EXPECT_EQ(core::hindsight_label(trace::Action::kRA, good),
            trace::Action::kRA);
  EXPECT_EQ(core::hindsight_label(trace::Action::kNA, good),
            trace::Action::kNA);

  // A NACK fails regardless of goodput; a low-goodput ACK fails too.
  core::FrameReport nack = good;
  nack.ack = false;
  core::FrameReport slow = good;
  slow.goodput_mbps = 10.0;
  for (const core::FrameReport& next : {nack, slow}) {
    EXPECT_EQ(core::hindsight_label(trace::Action::kBA, next),
              trace::Action::kRA);
    EXPECT_EQ(core::hindsight_label(trace::Action::kRA, next),
              trace::Action::kBA);
  }

  // A failed No-Adaptation escalates by the missing-ACK rule's shape.
  core::FrameReport low_mcs = nack;
  low_mcs.mcs = 3;
  EXPECT_EQ(core::hindsight_label(trace::Action::kNA, low_mcs),
            trace::Action::kBA);
  core::FrameReport high_mcs = nack;
  high_mcs.mcs = 9;
  EXPECT_EQ(core::hindsight_label(trace::Action::kNA, high_mcs),
            trace::Action::kRA);

  EXPECT_THROW(
      core::hindsight_label(static_cast<trace::Action>(17), good),
      std::invalid_argument);
}

// ---------- row sampler ----------

TEST(RowSampler, DeterministicSeededAndRateBounded) {
  core::FleetTrainerConfig cfg = small_trainer_cfg();
  cfg.sample_rate = 0.1;
  const core::FleetTrainer a(cfg);
  const core::FleetTrainer b(cfg);
  cfg.seed = 99;
  const core::FleetTrainer other_seed(cfg);

  int sampled = 0;
  bool seeds_differ = false;
  for (std::uint32_t link = 0; link < 100; ++link) {
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
      const bool want = a.wants(link, seq);
      // Pure hash: the same (seed, link, seq) answers identically whatever
      // trainer instance (== whatever shard) asks.
      ASSERT_EQ(want, b.wants(link, seq));
      sampled += want ? 1 : 0;
      seeds_differ |= want != other_seed.wants(link, seq);
    }
  }
  EXPECT_TRUE(seeds_differ);
  // 100k decisions at 10%: a generous 3-sigma-ish band.
  EXPECT_GT(sampled, 7000);
  EXPECT_LT(sampled, 13000);

  cfg = small_trainer_cfg();
  cfg.sample_rate = 1.0;
  const core::FleetTrainer all(cfg);
  cfg.sample_rate = 0.0;
  const core::FleetTrainer none(cfg);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_TRUE(all.wants(7, seq));
    EXPECT_FALSE(none.wants(7, seq));
  }
}

// ---------- row ring ----------

TEST(RowRing, DropOldestNeverGrowsPastCapacity) {
  core::RowRing ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.offer(make_row(i, 0, trace::Action::kBA,
                                  trace::Action::kBA, i)),
              core::RowRing::Offer::kAccepted);
  }
  for (int i = 4; i < 6; ++i) {
    EXPECT_EQ(ring.offer(make_row(i, 0, trace::Action::kBA,
                                  trace::Action::kBA, i)),
              core::RowRing::Offer::kReplacedOldest);
  }
  EXPECT_EQ(ring.size(), 4u);

  std::vector<core::TrainRow> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 4u);
  // Oldest two (ticks 0, 1) were dropped; the survivors are 2..5 in order.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].tick, i + 2);
  EXPECT_EQ(ring.size(), 0u);

  EXPECT_THROW(core::RowRing{0}, std::invalid_argument);
}

// ---------- model slot + swap backend ----------

TEST(ModelSlot, GenerationTagsAndPinnedModelSurvivesSwap) {
  core::ModelSlot slot;
  EXPECT_EQ(slot.pin(), nullptr);
  EXPECT_EQ(slot.generation(), 0u);

  const ml::RandomForest ten = make_cluster_forest(10);
  const ml::RandomForest seven = make_cluster_forest(7, /*seed=*/5);
  EXPECT_EQ(slot.install(ml::CompiledForest(ten)), 1u);
  const std::shared_ptr<const core::ModelSlot::Model> pinned = slot.pin();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->forest.num_trees(), 10);

  EXPECT_EQ(slot.install(ml::CompiledForest(seven)), 2u);
  EXPECT_EQ(slot.generation(), 2u);
  // The pre-swap pin still serves the old generation (in-flight batches
  // finish on the model they pinned).
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->forest.num_trees(), 10);
  EXPECT_EQ(slot.pin()->forest.num_trees(), 7);
}

TEST(SwapBackend, OutageWhileEmptyBitExactOnceSeeded) {
  core::ModelSlot slot;
  core::SwapBackend backend(&slot);
  EXPECT_EQ(backend.name(), "swap");
  EXPECT_TRUE(backend.local());
  EXPECT_FALSE(backend.available());

  ml::DataSet rows(trace::FeatureVector::kDim);
  for (int i = 0; i < 4; ++i) {
    rows.add(cluster_features(action_of(i), i).v, 0);
  }
  EXPECT_THROW(backend.vote_batch(rows), core::BackendOutageError);

  const ml::RandomForest forest = make_cluster_forest(10);
  slot.install(ml::CompiledForest(forest));
  EXPECT_TRUE(backend.available());
  const std::vector<std::vector<double>> votes = backend.vote_batch(rows);
  const std::vector<std::vector<double>> local =
      forest.vote_fractions_batch(rows);
  ASSERT_EQ(votes.size(), local.size());
  for (std::size_t r = 0; r < local.size(); ++r) {
    ASSERT_EQ(votes[r].size(), local[r].size()) << "row " << r;
    for (std::size_t c = 0; c < local[r].size(); ++c) {
      EXPECT_EQ(votes[r][c], local[r][c]) << "row " << r << " class " << c;
    }
  }
}

// True when `v` is an exact multiple of 1/num_trees (vote fractions are
// integer tree counts over num_trees -- exact in double).
bool fits_denominator(double v, int num_trees) {
  const double scaled = v * num_trees;
  return scaled == std::round(scaled) && scaled >= 0 && scaled <= num_trees;
}

// The local swap-atomicity stress: hammer vote_batch from several threads
// while the main thread swaps between a 10-tree and a 7-tree model. Every
// batch must be served wholly by one generation: a reply mixing k/10 and
// k/7 denominators would mean a torn swap. (TSan runs this test too.)
TEST(SwapStress, LocalBatchesNeverMixGenerations) {
  core::ModelSlot slot;
  core::SwapBackend backend(&slot);
  const ml::CompiledForest ten(make_cluster_forest(10));
  const ml::CompiledForest seven(make_cluster_forest(7, /*seed=*/5));
  slot.install(ml::CompiledForest(ten));

  ml::DataSet rows(trace::FeatureVector::kDim);
  for (int i = 0; i < 6; ++i) {
    rows.add(cluster_features(action_of(i), i).v, 0);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> replies{0};
  std::atomic<int> violations{0};
  auto hammer = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<std::vector<double>> votes = backend.vote_batch(rows);
      replies.fetch_add(1, std::memory_order_relaxed);
      bool all_ten = true, all_seven = true;
      for (const std::vector<double>& row : votes) {
        for (const double v : row) {
          if (!fits_denominator(v, 10)) all_ten = false;
          if (!fits_denominator(v, 7)) all_seven = false;
        }
      }
      if (!all_ten && !all_seven) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(hammer);
  // Don't start swapping until the hammer threads are actually serving --
  // 200 installs can finish before a thread gets its first batch through.
  while (replies.load(std::memory_order_relaxed) < 4) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 200; ++swap) {
    slot.install(
        ml::CompiledForest(swap % 2 == 0 ? seven : ten));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(replies.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(slot.generation(), 201u);
}

// The same property through the trainer itself: forced swaps (the pinned-
// schedule ship path, remote push included) while serving threads hammer
// the trainer's backend.
TEST(SwapStress, TrainerForcedSwapsDuringConcurrentServing) {
  core::FleetTrainerConfig cfg = small_trainer_cfg();
  core::FleetTrainer trainer(cfg);
  trainer.seed_model(make_cluster_forest(kCandidateTrees));
  trainer.attach_producers(1);
  std::int64_t tick = 0;
  offer_consistent(trainer, 200, &tick);
  ASSERT_GT(trainer.ingest_now(), 0u);

  std::atomic<int> pushes{0};
  trainer.set_remote_push([&](const ml::RandomForest& forest) {
    pushes.fetch_add(1, std::memory_order_relaxed);
    return forest.feature_importances().size() ==
           static_cast<std::size_t>(trace::FeatureVector::kDim);
  });

  ml::DataSet rows(trace::FeatureVector::kDim);
  for (int i = 0; i < 6; ++i) {
    rows.add(cluster_features(action_of(i), i).v, 0);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> replies{0};
  std::atomic<int> violations{0};
  auto hammer = [&] {
    std::uint64_t last_generation = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<std::vector<double>> votes =
          trainer.backend()->vote_batch(rows);
      replies.fetch_add(1, std::memory_order_relaxed);
      for (const std::vector<double>& row : votes) {
        for (const double v : row) {
          // Every candidate (and the seed) has kCandidateTrees trees: any
          // other denominator means a torn batch.
          if (!fits_denominator(v, kCandidateTrees)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      // Generations only move forward under swaps.
      const std::uint64_t g = trainer.generation();
      if (g < last_generation) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      last_generation = g;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(hammer);
  while (replies.load(std::memory_order_relaxed) < 4) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 8; ++swap) {
    const core::FleetTrainer::FitOutcome outcome =
        trainer.train_once(/*force=*/true);
    ASSERT_TRUE(outcome.fitted) << outcome.reason;
    ASSERT_TRUE(outcome.shipped) << outcome.reason;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(replies.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(trainer.swaps_shipped(), 8u);
  EXPECT_EQ(trainer.generation(), 9u);  // seed + 8 forced swaps
  EXPECT_EQ(pushes.load(), 8);
}

// ---------- drift detector ----------

TEST(DriftDetector, ScoreIsWindowedMismatchFraction) {
  constexpr std::uint64_t kWindow = core::kDriftWindowRows;
  core::DriftDetector drift;
  EXPECT_EQ(drift.score(), 0.0);
  EXPECT_FALSE(drift.drifted());

  drift.observe(100, 10);
  EXPECT_NEAR(drift.score(), 0.1, 1e-12);
  EXPECT_FALSE(drift.drifted());
  drift.observe(100, 60);
  EXPECT_NEAR(drift.score(), 0.35, 1e-12);
  EXPECT_TRUE(drift.drifted());

  drift.reset();
  EXPECT_EQ(drift.score(), 0.0);

  // Sliding window: old clean chunks age out, so a fresh mismatch burst
  // dominates even after a long clean history.
  for (int i = 0; i < 20; ++i) drift.observe(kWindow / 4, 0);
  EXPECT_EQ(drift.score(), 0.0);
  drift.observe(kWindow / 2, kWindow / 2);
  EXPECT_GE(drift.score(), 0.5);
  EXPECT_TRUE(drift.drifted());
  EXPECT_THROW(drift.observe(10, 11), std::invalid_argument);
}

// ---------- swap gates ----------

TEST(DriftGate, StationaryWorkloadShipsNothing) {
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);

  std::int64_t tick = 0;
  offer_consistent(trainer, 400, &tick);
  EXPECT_GT(trainer.ingest_now(), 0u);
  EXPECT_GT(trainer.window_size(), 0u);
  EXPECT_GT(trainer.holdout_size(), 0u);

  const core::FleetTrainer::FitOutcome outcome = trainer.train_once();
  EXPECT_TRUE(outcome.fitted);
  EXPECT_FALSE(outcome.shipped);
  EXPECT_NE(outcome.reason.find("no drift"), std::string::npos)
      << outcome.reason;
  EXPECT_LT(outcome.drift_score, core::kDriftThreshold);
  EXPECT_EQ(trainer.swaps_shipped(), 0u);
  EXPECT_EQ(trainer.swaps_rejected(), 1u);
  EXPECT_EQ(trainer.generation(), 1u);  // still the seed
}

TEST(DriftGate, RegimeShiftShipsWithinBudget) {
  const std::uint64_t shipped_before = counter_value("trainer.swaps_shipped");
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);

  // The regime shift: same features, rotated labels. The incumbent now
  // mismatches essentially every row (drift), and a candidate trained on
  // the new labels beats it on the holdout (accuracy gain).
  std::int64_t tick = 0;
  bool shipped = false;
  constexpr int kMaxFitRounds = 5;
  for (int round = 0; round < kMaxFitRounds && !shipped; ++round) {
    offer_rotated(trainer, 200, &tick);
    ASSERT_GT(trainer.ingest_now(), 0u);
    const core::FleetTrainer::FitOutcome outcome = trainer.train_once();
    ASSERT_TRUE(outcome.fitted) << outcome.reason;
    if (outcome.shipped) {
      shipped = true;
      EXPECT_GE(outcome.drift_score, core::kDriftThreshold);
      EXPECT_GE(outcome.candidate_acc,
                outcome.incumbent_acc + core::kMinAccuracyGain);
      EXPECT_EQ(outcome.generation, 2u);
    }
  }
  EXPECT_TRUE(shipped) << "no swap within " << kMaxFitRounds << " fit rounds";
  EXPECT_EQ(trainer.swaps_shipped(), 1u);
  EXPECT_EQ(trainer.generation(), 2u);
  // A shipped swap resets the detector: the new incumbent starts clean.
  EXPECT_EQ(trainer.drift_score(), 0.0);
  EXPECT_EQ(counter_value("trainer.swaps_shipped"), shipped_before + 1);
}

TEST(DriftGate, CorruptedLabelCandidateRejectedByAccuracyGate) {
  const std::uint64_t rejected_before =
      counter_value("trainer.swaps_rejected");
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);

  // Corrupted labels in the training window only: every row that lands in
  // the holdout (each kHoldoutEvery-th ingested) keeps its true label, the
  // rest are rotated. The incumbent mismatches the stream far past the
  // drift threshold, so only the accuracy gate stands between the
  // candidate, which learned the rotation, and the fleet.
  std::int64_t tick = 0;
  offer_rows(trainer, 600, &tick, [](trace::Action cluster, int i) {
    const bool holdout = (i + 1) % core::kHoldoutEvery == 0;
    return holdout ? cluster : rotate(cluster);
  });
  ASSERT_GT(trainer.ingest_now(), 0u);

  const core::FleetTrainer::FitOutcome outcome = trainer.train_once();
  EXPECT_TRUE(outcome.fitted);
  EXPECT_FALSE(outcome.shipped);
  EXPECT_GE(outcome.drift_score, core::kDriftThreshold);  // drift DID fire
  EXPECT_LT(outcome.candidate_acc, outcome.incumbent_acc);
  EXPECT_NE(outcome.reason.find("accuracy gate"), std::string::npos)
      << outcome.reason;
  EXPECT_EQ(trainer.swaps_shipped(), 0u);
  EXPECT_EQ(trainer.generation(), 1u);  // the accurate seed keeps serving
  EXPECT_EQ(counter_value("trainer.swaps_rejected"), rejected_before + 1);
}

// The faults:: garbage-PHY scenario at the row-stream boundary: non-finite
// features must be rejected at ingest, never reaching the window or the
// off-path fit.
TEST(DriftGate, GarbagePhyRowsRejectedAtIngest) {
  const std::uint64_t rejected_before = counter_value("trainer.rows_rejected");
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.attach_producers(1);

  std::int64_t tick = 0;
  for (int i = 0; i < 10; ++i) {
    core::TrainRow row = make_row(tick++, 0, action_of(i), action_of(i), i);
    row.features.v[i % trace::FeatureVector::kDim] =
        i % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                   : std::numeric_limits<double>::infinity();
    trainer.offer(0, std::move(row));
  }
  EXPECT_EQ(trainer.ingest_now(), 0u);
  EXPECT_EQ(trainer.window_size(), 0u);
  EXPECT_EQ(trainer.holdout_size(), 0u);
  EXPECT_EQ(trainer.rows_ingested(), 0u);

  // A mixed batch keeps only the finite rows.
  for (int i = 0; i < 10; ++i) {
    core::TrainRow good = make_row(tick++, 1, action_of(i), action_of(i), i);
    trainer.offer(0, std::move(good));
    core::TrainRow bad = make_row(tick++, 2, action_of(i), action_of(i), i);
    bad.features.v[0] = std::numeric_limits<double>::quiet_NaN();
    trainer.offer(0, std::move(bad));
  }
  EXPECT_EQ(trainer.ingest_now(), 10u);
  EXPECT_EQ(trainer.rows_ingested(), 10u);
  EXPECT_EQ(counter_value("trainer.rows_rejected"), rejected_before + 20);
}

TEST(DriftGate, InsufficientDataReportsReasonInsteadOfFitting) {
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);

  // Empty window: no fit at all.
  const core::FleetTrainer::FitOutcome no_rows = trainer.train_once();
  EXPECT_FALSE(no_rows.fitted);
  EXPECT_NE(no_rows.reason.find("insufficient window rows"),
            std::string::npos);
  EXPECT_EQ(trainer.fits(), 0u);

  // Enough window, not enough holdout: fits but reports the gate. 100
  // rows put 12 in the holdout and 88 in the window.
  std::int64_t tick = 0;
  offer_consistent(trainer, 100, &tick);
  ASSERT_GT(trainer.ingest_now(), 0u);
  ASSERT_GE(trainer.window_size(), core::kMinFitRows);
  ASSERT_LT(trainer.holdout_size(), core::kMinHoldoutRows);
  const core::FleetTrainer::FitOutcome starved_outcome = trainer.train_once();
  EXPECT_TRUE(starved_outcome.fitted);
  EXPECT_FALSE(starved_outcome.shipped);
  EXPECT_NE(starved_outcome.reason.find("insufficient holdout rows"),
            std::string::npos);
}

TEST(FleetTrainer, OfferValidation) {
  core::FleetTrainer trainer(small_trainer_cfg());
  // No producers attached yet.
  EXPECT_THROW(
      trainer.offer(0, make_row(0, 0, trace::Action::kBA,
                                trace::Action::kBA, 0)),
      std::out_of_range);
  trainer.attach_producers(2);
  EXPECT_THROW(
      trainer.offer(2, make_row(0, 0, trace::Action::kBA,
                                trace::Action::kBA, 0)),
      std::out_of_range);
}

TEST(FleetTrainer, StartIncompatibleWithPinnedSchedule) {
  core::FleetTrainerConfig cfg = small_trainer_cfg();
  cfg.swap_at_ticks = {10, 20};
  core::FleetTrainer trainer(cfg);
  EXPECT_TRUE(trainer.pinned_schedule());
  EXPECT_THROW(trainer.start(), std::logic_error);
  EXPECT_FALSE(trainer.running());
}

// ---------- ModelPush loopback ----------

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/libra_trainer_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// The remote leg of the swap: every shipped candidate rides ModelPush to
// the daemon, whose generation counter advances push by push while
// concurrent classify batches stay internally consistent.
TEST(ModelPushLoopback, TrainerShipsToRemoteDaemonDuringServing) {
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  // 7 trees: no vote fraction but 0 and 1 is also a k/kCandidateTrees.
  server.set_forest(make_cluster_forest(7, /*seed=*/5));
  server.start();
  ASSERT_EQ(server.model_generation(), 1u);

  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);
  std::int64_t tick = 0;
  offer_consistent(trainer, 200, &tick);
  ASSERT_GT(trainer.ingest_now(), 0u);

  rpc::ClientConfig pcfg;
  pcfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient pusher(pcfg);
  trainer.set_remote_push([&](const ml::RandomForest& forest) {
    const std::optional<rpc::AckMsg> ack = pusher.push_model(forest);
    return ack.has_value() && ack->ok;
  });

  ml::DataSet rows(trace::FeatureVector::kDim);
  for (int i = 0; i < 4; ++i) {
    rows.add(cluster_features(action_of(i), i).v, 0);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> replies{0};
  std::atomic<int> violations{0};
  auto hammer = [&] {
    rpc::ClientConfig ccfg;
    ccfg.unix_socket = scfg.unix_socket;
    rpc::DecisionClient client(ccfg);
    while (!stop.load(std::memory_order_acquire)) {
      const std::optional<std::vector<std::vector<double>>> votes =
          client.classify(rows);
      if (!votes.has_value()) continue;  // transient
      replies.fetch_add(1, std::memory_order_relaxed);
      bool all_seven = true, all_candidate = true;
      for (const std::vector<double>& row : *votes) {
        for (const double v : row) {
          // The 7-tree initial model or a shipped candidate -- never a mix
          // inside one reply.
          if (!fits_denominator(v, 7)) all_seven = false;
          if (!fits_denominator(v, kCandidateTrees)) all_candidate = false;
        }
      }
      if (!all_seven && !all_candidate) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread t1(hammer), t2(hammer);
  for (int swap = 0; swap < 5; ++swap) {
    const core::FleetTrainer::FitOutcome outcome =
        trainer.train_once(/*force=*/true);
    ASSERT_TRUE(outcome.shipped) << outcome.reason;
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();

  EXPECT_GT(replies.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  // Initial set_forest + 5 pushed candidates.
  EXPECT_EQ(server.model_generation(), 6u);
  EXPECT_EQ(trainer.swaps_shipped(), 5u);
  server.stop();
}

// A dead daemon must not block the local swap: the push fails, the local
// generation still advances.
TEST(ModelPushLoopback, RemotePushFailureKeepsLocalSwap) {
  core::FleetTrainer trainer(small_trainer_cfg());
  trainer.seed_model(make_cluster_forest());
  trainer.attach_producers(1);
  std::int64_t tick = 0;
  offer_consistent(trainer, 100, &tick);
  ASSERT_GT(trainer.ingest_now(), 0u);

  rpc::ClientConfig dead;
  dead.unix_socket = unique_socket_path();  // never bound
  rpc::DecisionClient client(dead);
  trainer.set_remote_push([&](const ml::RandomForest& forest) {
    const std::optional<rpc::AckMsg> ack = client.push_model(forest);
    return ack.has_value() && ack->ok;
  });

  const core::FleetTrainer::FitOutcome outcome =
      trainer.train_once(/*force=*/true);
  EXPECT_TRUE(outcome.shipped) << outcome.reason;
  EXPECT_EQ(trainer.generation(), 2u);
}

// ---------- fleet determinism ----------

// A trained 3-class classifier over clearly separated synthetic cases
// (same corpus as fleet_test/rpc_test).
core::LibraClassifier make_fleet_classifier() {
  trace::Dataset ds;
  for (int i = 0; i < 40; ++i) {
    trace::CaseRecord ba = make_record(4, -1, 4);
    ba.init_best.snr_db = 20.0;
    ba.new_at_init_pair.snr_db = 5.0 - 0.1 * (i % 5);
    ba.new_at_init_pair.tof_ns = std::nullopt;
    ds.records.push_back(ba);
    trace::CaseRecord ra = make_record(8, 5, 5);
    ra.init_best.snr_db = 26.0;
    ra.init_best.tof_ns = 20.0;
    ra.new_at_init_pair.snr_db = 19.0 - 0.1 * (i % 7);
    ra.new_at_init_pair.tof_ns = 45.0;
    ds.records.push_back(ra);
    trace::CaseRecord na = make_record(6, 6, 6);
    na.forced_na = true;
    na.init_best.snr_db = 22.0;
    na.new_at_init_pair.snr_db = 22.0 - 0.05 * (i % 3);
    ds.na_records.push_back(na);
  }
  core::LibraClassifierConfig cfg;
  cfg.forest.num_threads = 4;
  core::LibraClassifier c(cfg);
  util::Rng rng(1);
  c.train(ds, {}, rng);
  return c;
}

const core::LibraClassifier& fleet_classifier() {
  static const core::LibraClassifier clf = make_fleet_classifier();
  return clf;
}

const phy::ErrorModel& shared_error_model() {
  static const phy::McsTable table;
  static const phy::ErrorModel em(&table);
  return em;
}

// One station's whole world, self-contained so every grid point builds an
// identical fresh copy (same pattern as fleet_test).
struct Station {
  env::Environment env;
  array::PhasedArray ap;
  array::PhasedArray client;
  channel::Link link;
  std::unique_ptr<core::LinkController> controller;
  sim::SessionScript script;

  Station(const array::Codebook* codebook, geom::Vec2 client_pos,
          const core::LibraClassifier* clf)
      : env(env::make_lobby()),
        ap({2, 6}, 0.0, codebook),
        client(client_pos, 180.0, codebook),
        link(&env, &ap, &client) {
    if (clf != nullptr) {
      controller = std::make_unique<core::LibraController>(
          &link, &shared_error_model(), clf);
    } else {
      controller = std::make_unique<core::RaFirstController>(
          &link, &shared_error_model());
    }
  }
};

// A 4-station mixed fleet: three LiBRA stations (one blocked, one walking)
// plus one RA-first baseline, with an early finisher; `copies` > 1 appends
// that many more copies of the four (each link still draws its own streams).
std::vector<std::unique_ptr<Station>> build_stations(
    const array::Codebook* codebook, int copies = 1) {
  const core::LibraClassifier* clf = &fleet_classifier();
  std::vector<std::unique_ptr<Station>> stations;
  for (int c = 0; c < copies; ++c) {
    stations.push_back(
        std::make_unique<Station>(codebook, geom::Vec2{10, 6}, clf));
    stations.back()->script.duration_ms = 1500.0;
    stations.back()->script.rx_trajectory =
        sim::Trajectory::stationary({10, 6}, 180.0);
    stations.back()->script.blockage.push_back(
        {400.0, 1100.0, {{6, 6}, 0.3, 35.0}});

    stations.push_back(
        std::make_unique<Station>(codebook, geom::Vec2{12, 7}, clf));
    stations.back()->script.duration_ms = 1500.0;
    stations.back()->script.rx_trajectory =
        sim::Trajectory::walk({12, 7}, {18, 8}, 1500.0, geom::Vec2{2, 6});

    stations.push_back(
        std::make_unique<Station>(codebook, geom::Vec2{9, 5}, nullptr));
    stations.back()->script.duration_ms = 1500.0;
    stations.back()->script.rx_trajectory =
        sim::Trajectory::stationary({9, 5}, 180.0);
    stations.back()->script.interference.push_back(
        {300.0, 1200.0, {{10, 1}, 50.0, 0.5}});

    stations.push_back(
        std::make_unique<Station>(codebook, geom::Vec2{11, 6}, clf));
    stations.back()->script.duration_ms = 600.0;  // early finisher
    stations.back()->script.rx_trajectory =
        sim::Trajectory::stationary({11, 6}, 180.0);
  }
  return stations;
}

struct TrainedFleetRun {
  sim::FleetResult result;
  std::uint64_t rows_sampled = 0;
  std::uint64_t rows_dropped = 0;
  std::uint64_t generation = 0;
  std::uint64_t fits = 0;
};

TrainedFleetRun run_trained_fleet(const array::Codebook* codebook,
                                  const core::FleetTrainerConfig& trainer_cfg,
                                  int shards, int num_threads,
                                  bool serve_through_trainer) {
  auto stations = build_stations(codebook);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  core::FleetTrainer trainer(trainer_cfg);
  trainer.seed_model(fleet_classifier().forest());
  sim::FleetConfig cfg;
  cfg.seed = 77;
  cfg.keep_frame_logs = true;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  cfg.trainer = &trainer;
  if (serve_through_trainer) cfg.backend = trainer.backend();
  TrainedFleetRun run;
  run.result = sim::run_fleet(members, cfg);
  run.rows_sampled = trainer.rows_sampled();
  run.rows_dropped = trainer.rows_dropped();
  run.generation = trainer.generation();
  run.fits = trainer.fits();
  return run;
}

sim::FleetResult run_plain_fleet(const array::Codebook* codebook, int shards,
                                 int num_threads, int copies = 1) {
  auto stations = build_stations(codebook, copies);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = 77;
  cfg.keep_frame_logs = true;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  return sim::run_fleet(members, cfg);
}

// Full bit-identity check between two per-link result sets, frame logs
// included (every float compared with ==).
void expect_links_identical(const std::vector<sim::SessionResult>& a,
                            const std::vector<sim::SessionResult>& b,
                            const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].frames, b[i].frames) << tag << " link " << i;
    EXPECT_EQ(a[i].bytes_mb, b[i].bytes_mb) << tag << " link " << i;
    EXPECT_EQ(a[i].avg_goodput_mbps, b[i].avg_goodput_mbps)
        << tag << " link " << i;
    EXPECT_EQ(a[i].adaptations_ba, b[i].adaptations_ba)
        << tag << " link " << i;
    EXPECT_EQ(a[i].adaptations_ra, b[i].adaptations_ra)
        << tag << " link " << i;
    EXPECT_EQ(a[i].outages, b[i].outages) << tag << " link " << i;
    EXPECT_EQ(a[i].total_outage_ms, b[i].total_outage_ms)
        << tag << " link " << i;
    ASSERT_EQ(a[i].frame_log.size(), b[i].frame_log.size())
        << tag << " link " << i;
    for (std::size_t f = 0; f < a[i].frame_log.size(); ++f) {
      const core::FrameReport& x = a[i].frame_log[f];
      const core::FrameReport& y = b[i].frame_log[f];
      ASSERT_EQ(x.t_ms, y.t_ms) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(x.mcs, y.mcs) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(x.goodput_mbps, y.goodput_mbps)
          << tag << " link " << i << " frame " << f;
      ASSERT_EQ(x.ack, y.ack) << tag << " link " << i << " frame " << f;
      ASSERT_EQ(x.action, y.action) << tag << " link " << i << " frame " << f;
    }
  }
}

// The headline replay contract: with a pinned swap schedule, the whole
// online-learning loop -- sampling, ingestion, candidate fits, swaps that
// CHANGE what the fleet serves -- replays bit-for-bit at any
// (shards, num_threads). Also proves the per-tick drain never drops a row.
TEST(PinnedReplay, ShardThreadGridBitIdentical) {
  const array::Codebook codebook;

  // Probe: a trainer-off run fixes the tick horizon the schedule pins to.
  const sim::FleetResult probe = run_plain_fleet(&codebook, 1, 1);
  ASSERT_GT(probe.ticks, 30);

  core::FleetTrainerConfig tcfg;
  tcfg.seed = 9;
  tcfg.sample_rate = 1.0;  // every inference decision feeds the stream
  tcfg.ring_capacity = 65536;
  tcfg.window_rows = 65536;
  tcfg.swap_at_ticks = {probe.ticks / 3, (2 * probe.ticks) / 3};

  const TrainedFleetRun baseline =
      run_trained_fleet(&codebook, tcfg, 1, 1, /*serve_through_trainer=*/true);
  EXPECT_GT(baseline.rows_sampled, 0u);
  EXPECT_EQ(baseline.rows_dropped, 0u);
  EXPECT_GE(baseline.generation, 2u);  // at least one swap actually shipped
  EXPECT_GT(baseline.fits, 0u);
  EXPECT_EQ(baseline.result.trainer_rows_sampled,
            static_cast<std::int64_t>(baseline.rows_sampled));

  constexpr struct {
    int shards;
    int threads;
  } kGrid[] = {{3, 2}, {0, 4}, {4, 1}};
  for (const auto& g : kGrid) {
    const TrainedFleetRun run = run_trained_fleet(
        &codebook, tcfg, g.shards, g.threads, /*serve_through_trainer=*/true);
    const std::string tag = "shards=" + std::to_string(g.shards) +
                            " threads=" + std::to_string(g.threads);
    EXPECT_EQ(run.rows_sampled, baseline.rows_sampled) << tag;
    EXPECT_EQ(run.rows_dropped, 0u) << tag;
    EXPECT_EQ(run.generation, baseline.generation) << tag;
    EXPECT_EQ(run.fits, baseline.fits) << tag;
    EXPECT_EQ(run.result.ticks, baseline.result.ticks) << tag;
    expect_links_identical(baseline.result.links, run.result.links, tag);
  }
}

// An attached trainer that never ships is bit-identical to no trainer at
// all -- even free-running, with ingestion and candidate fits racing the
// shard workers, and even serving THROUGH the trainer's backend (the seeded
// slot serves the same compiled forest the classifier would). Once
// kFitEveryRows rows have reached the rings the run is held on its next
// batch until the background thread's next wake (every kTrainPeriodMs) has
// ingested them and fitted a candidate; the seed model's low drift score
// keeps the swap gates shut.
TEST(PinnedReplay, NeverSwappingTrainerBitIdenticalToTrainerOff) {
  const array::Codebook codebook;
  constexpr int kCopies = 3;  // enough decisions for a fit's worth of rows
  const sim::FleetResult off = run_plain_fleet(&codebook, 3, 2, kCopies);

  auto stations = build_stations(&codebook, kCopies);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  core::FleetTrainerConfig tcfg;
  tcfg.seed = 9;
  tcfg.sample_rate = 1.0;
  core::FleetTrainer trainer(tcfg);
  trainer.seed_model(fleet_classifier().forest());
  trainer.start();

  std::atomic<bool> fitted_mid_run{false};
  testing::HoldingBackend held(trainer.backend(), [&](std::size_t) {
    if (trainer.fits() > 0) {
      fitted_mid_run.store(true);
      return false;
    }
    return trainer.rows_sampled() - trainer.rows_dropped() >=
           core::kFitEveryRows;
  });
  sim::FleetConfig cfg;
  cfg.seed = 77;
  cfg.keep_frame_logs = true;
  cfg.shards = 3;
  cfg.num_threads = 2;
  cfg.trainer = &trainer;
  cfg.backend = &held;
  const sim::FleetResult on = sim::run_fleet(members, cfg);
  trainer.stop();

  EXPECT_TRUE(fitted_mid_run.load());  // a batch in flight saw the fit
  EXPECT_GE(trainer.rows_sampled(), core::kFitEveryRows);
  EXPECT_GT(trainer.fits(), 0u);
  EXPECT_EQ(trainer.swaps_shipped(), 0u);
  EXPECT_EQ(trainer.swaps_rejected(), trainer.fits());
  EXPECT_LT(trainer.drift_score(), core::kDriftThreshold);  // the shut gate
  EXPECT_EQ(trainer.generation(), 1u);  // still the seed
  expect_links_identical(off.links, on.links, "never-ships");
}

}  // namespace
}  // namespace libra
