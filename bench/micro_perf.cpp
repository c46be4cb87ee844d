// Micro-benchmarks (google-benchmark).
//
// The paper argues LiBRA is deployable because the per-decision inference
// cost is negligible (0.5 ms on a phone GPU; decisions every 2 frames).
// These benches measure our RF/DT/DNN inference, feature extraction, the
// ray tracer, the O(N) vs O(N^2) beam sweeps, and one full simulated event.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "array/codebook.h"
#include "core/classifier.h"
#include "core/controller.h"
#include "core/trainer.h"
#include "env/registry.h"
#include "mac/beam_training.h"
#include "ml/compiled_forest.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/span.h"
#include "util/thread_pool.h"
#include "phy/error_model.h"
#include "phy/pdp.h"
#include "phy/sampler.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/event_sim.h"
#include "sim/fleet.h"
#include "trace/dataset.h"
#include "util/fft.h"
#include "util/stats.h"

using namespace libra;

namespace {

// Shared state, built once.
struct Fixture {
  phy::McsTable table;
  phy::ErrorModel em{&table};
  trace::Dataset training;
  trace::GroundTruthConfig gt;
  ml::DataSet train_ds{trace::FeatureVector::kDim};
  core::LibraClassifier classifier;
  util::Rng rng{1};

  Fixture() {
    trace::CollectOptions opt;
    opt.with_na_augmentation = true;
    training = trace::collect_dataset(trace::training_scenarios(), em, opt);
    for (const auto& e : training.labeled(gt)) {
      train_ds.add(e.x.v, e.y == trace::Action::kBA ? 0 : 1);
    }
    classifier.train(training, gt, rng);
  }

  static Fixture& get() {
    static Fixture f;
    return f;
  }
};

void BM_RandomForestInference(benchmark::State& state) {
  auto& f = Fixture::get();
  const auto row = f.train_ds.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.classifier.forest().predict(row));
  }
}
BENCHMARK(BM_RandomForestInference);

void BM_DecisionTreeInference(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::DecisionTree dt;
  util::Rng rng(2);
  dt.fit(f.train_ds, rng);
  const auto row = f.train_ds.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt.predict(row));
  }
}
BENCHMARK(BM_DecisionTreeInference);

void BM_DnnInference(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::NeuralNetConfig cfg;
  cfg.epochs = 5;  // training cost is irrelevant here
  ml::NeuralNet nn(cfg);
  util::Rng rng(3);
  nn.fit(f.train_ds, rng);
  const auto row = f.train_ds.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn.predict(row));
  }
}
BENCHMARK(BM_DnnInference);

void BM_FeatureExtraction(benchmark::State& state) {
  auto& f = Fixture::get();
  const trace::CaseRecord& rec = f.training.records.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::extract_features(rec));
  }
}
BENCHMARK(BM_FeatureExtraction);

// Arg = num_threads (1 = serial legacy path). The `bit_identical` counter
// confirms the parallel forest matches the serial one exactly: same
// per-tree Rng streams, same importances, same predictions.
void BM_RandomForestTraining(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::RandomForestConfig cfg;
  cfg.num_threads = static_cast<int>(state.range(0));
  ml::RandomForest rf(cfg);  // outside the loop: the pool persists
  for (auto _ : state) {
    util::Rng rng(4);
    rf.fit(f.train_ds, rng);
    benchmark::DoNotOptimize(rf);
  }
  ml::RandomForestConfig serial_cfg = cfg;
  serial_cfg.num_threads = 1;
  ml::RandomForest serial(serial_cfg);
  util::Rng r1(4), r2(4);
  serial.fit(f.train_ds, r1);
  rf.fit(f.train_ds, r2);
  state.counters["bit_identical"] =
      serial.feature_importances() == rf.feature_importances() &&
      serial.predict_batch(f.train_ds) == rf.predict_batch(f.train_ds);
}
BENCHMARK(BM_RandomForestTraining)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// LibraClassifier::train on the fixture's campaign with a serial forest:
// the deployed model's fit (fleetbench's Model), labeled3 extraction
// included. `fit_latency_us` is the mean of the forest.fit span over the
// timed fits; `bit_identical` compares the model with a 4-thread fit.
void BM_LibraClassifierTrain(benchmark::State& state) {
  auto& f = Fixture::get();
  core::LibraClassifierConfig cfg;
  cfg.forest.num_threads = 1;
  core::LibraClassifier classifier(cfg);
  const auto fit_latency = [] {
    const auto* h = obs::Registry::global().snapshot().find_histogram(
        "forest.fit_latency_us");
    return h ? h->data : obs::HistogramData{};
  };
  const obs::HistogramData before = fit_latency();
  for (auto _ : state) {
    util::Rng rng(11);
    classifier.train(f.training, f.gt, rng);
    benchmark::DoNotOptimize(classifier);
  }
  state.counters["fit_latency_us"] = fit_latency().delta_since(before).mean();
  core::LibraClassifierConfig parallel_cfg = cfg;
  parallel_cfg.forest.num_threads = 4;
  core::LibraClassifier parallel(parallel_cfg);
  util::Rng rng(11);
  parallel.train(f.training, f.gt, rng);
  state.counters["bit_identical"] =
      classifier.forest().feature_importances() ==
          parallel.forest().feature_importances() &&
      classifier.forest().predict_batch(f.train_ds) ==
          parallel.forest().predict_batch(f.train_ds);
}
BENCHMARK(BM_LibraClassifierTrain)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Repeated stratified 5-fold CV of a small forest, parallel across the
// (repeat, fold) grid. Arg = num_threads for the CV pool.
void BM_RepeatedCrossValidation(benchmark::State& state) {
  auto& f = Fixture::get();
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  const ml::ClassifierFactory factory = [] {
    ml::RandomForestConfig c;
    c.num_trees = 20;
    c.num_threads = 1;  // the CV grid supplies the parallelism
    return std::make_unique<ml::RandomForest>(c);
  };
  for (auto _ : state) {
    util::Rng rng(8);
    benchmark::DoNotOptimize(
        ml::cross_validate(f.train_ds, factory, 5, 4, rng, &pool));
  }
  util::Rng r1(8), r2(8);
  const ml::CvResult serial =
      ml::cross_validate(f.train_ds, factory, 5, 2, r1, nullptr);
  const ml::CvResult parallel =
      ml::cross_validate(f.train_ds, factory, 5, 2, r2, &pool);
  state.counters["bit_identical"] = serial.accuracy == parallel.accuracy &&
                                    serial.weighted_f1 == parallel.weighted_f1;
}
BENCHMARK(BM_RepeatedCrossValidation)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// `rows` feature rows cycled out of the training set: a serving-shaped
// batch without collecting a bigger campaign.
ml::DataSet replicate_rows(const ml::DataSet& src, std::size_t rows) {
  ml::DataSet out(src.num_features());
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    out.add(src.row(i % src.size()), src.label(i % src.size()));
  }
  return out;
}

// The interpreted pointer-walk batch path (per-tree std::vector<Node>
// heaps), single-threaded: the reference the compiled arena is gated
// against. Args = {rows, trees}.
void BM_ForestBatchInterpreted(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::RandomForestConfig cfg;
  cfg.num_trees = static_cast<int>(state.range(1));
  cfg.num_threads = 1;
  ml::RandomForest rf(cfg);
  util::Rng rng(4);
  rf.fit(f.train_ds, rng);
  const ml::DataSet data =
      replicate_rows(f.train_ds, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.vote_fractions_batch(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForestBatchInterpreted)
    ->Args({256, 20})
    ->Args({256, 60})
    ->Args({1024, 60})
    ->Args({4096, 60})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The compiled flat-arena engine on the same rows x trees grid (also
// single-threaded -- the CI gate tracks engine speed, not pool scaling).
// `bit_identical` replays the batch against the interpreted walk; every
// vote fraction must match exactly.
void BM_CompiledForestBatch(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::RandomForestConfig cfg;
  cfg.num_trees = static_cast<int>(state.range(1));
  cfg.num_threads = 1;
  ml::RandomForest rf(cfg);
  util::Rng rng(4);
  rf.fit(f.train_ds, rng);
  const ml::CompiledForest compiled(rf);
  const ml::DataSet data =
      replicate_rows(f.train_ds, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.vote_fractions_batch(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
  state.counters["arena_kb"] =
      static_cast<double>(compiled.arena_bytes()) / 1024.0;
  state.counters["bit_identical"] =
      compiled.vote_fractions_batch(data) == rf.vote_fractions_batch(data);
}
BENCHMARK(BM_CompiledForestBatch)
    ->Args({256, 20})
    ->Args({256, 60})
    ->Args({1024, 60})
    ->Args({4096, 60})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Batched forest inference across all rows. Arg = num_threads.
void BM_ForestPredictBatch(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::RandomForestConfig cfg;
  cfg.num_threads = static_cast<int>(state.range(0));
  ml::RandomForest rf(cfg);
  util::Rng rng(4);
  rf.fit(f.train_ds, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.predict_batch(f.train_ds));
  }
}
BENCHMARK(BM_ForestPredictBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Fleet-scale decision serving: one classify_batch call over N links'
// feature rows, per-link jitter from per-link Rng streams, forest votes on
// a pool of `threads` workers. Args = {num_links, num_threads}. The
// `bit_identical` counter replays the batch against N serial per-link
// classify() calls fed clones of the same streams and checks every verdict
// matches -- the FleetSession determinism contract at the classifier
// boundary.
void BM_FleetClassifyBatch(benchmark::State& state) {
  auto& f = Fixture::get();
  const auto links = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  util::ThreadPool pool(threads);
  core::LibraClassifier clf = f.classifier;  // copies share the trees
  clf.set_thread_pool(&pool);

  std::vector<trace::FeatureVector> rows(links);
  for (std::size_t i = 0; i < links; ++i) {
    rows[i] = trace::extract_features(
        f.training.records[i % f.training.records.size()]);
  }
  std::vector<util::Rng> streams;
  std::vector<util::Rng*> stream_ptrs;
  streams.reserve(links);
  for (std::size_t i = 0; i < links; ++i) {
    streams.emplace_back(1000 + i);
  }
  for (util::Rng& s : streams) stream_ptrs.push_back(&s);

  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.classify_batch(rows, stream_ptrs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(links));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(links),
      benchmark::Counter::kIsRate);

  // Verdict parity: batch vs. serial per-link classify on twin streams.
  std::vector<util::Rng> batch_streams, serial_streams;
  std::vector<util::Rng*> batch_ptrs;
  for (std::size_t i = 0; i < links; ++i) {
    batch_streams.emplace_back(2000 + i);
    serial_streams.emplace_back(2000 + i);
  }
  for (util::Rng& s : batch_streams) batch_ptrs.push_back(&s);
  const std::vector<trace::Action> batched =
      clf.classify_batch(rows, batch_ptrs);
  bool identical = true;
  for (std::size_t i = 0; i < links; ++i) {
    identical &= batched[i] == f.classifier.classify(rows[i],
                                                     serial_streams[i]);
  }
  state.counters["bit_identical"] = identical;
}
BENCHMARK(BM_FleetClassifyBatch)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({128, 1})
    ->Args({128, 4})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The fault-injection hooks on the serving pipeline. Arg(0) = no FaultPlan
// attached (every hook is a null-pointer check -- the cost every unfaulted
// run pays, which must stay ~zero), Arg(1) = the kitchen-sink demo plan.
// One iteration = one full 3-station faulted-canonical fleet run.
void BM_FleetWithFaults(benchmark::State& state) {
  const bool faulted = state.range(0) != 0;
  const array::Codebook codebook;
  auto& f = Fixture::get();
  for (auto _ : state) {
    std::vector<std::unique_ptr<env::Environment>> envs;
    std::vector<std::unique_ptr<array::PhasedArray>> arrays;
    std::vector<std::unique_ptr<channel::Link>> links;
    std::vector<std::unique_ptr<core::LinkController>> controllers;
    std::vector<sim::FleetLink> members;
    for (int i = 0; i < 3; ++i) {
      envs.push_back(std::make_unique<env::Environment>(env::make_lobby()));
      arrays.push_back(
          std::make_unique<array::PhasedArray>(geom::Vec2{2, 6}, 0.0,
                                               &codebook));
      arrays.push_back(std::make_unique<array::PhasedArray>(
          geom::Vec2{10.0 + i, 6}, 180.0, &codebook));
      links.push_back(std::make_unique<channel::Link>(
          envs.back().get(), arrays[arrays.size() - 2].get(),
          arrays.back().get()));
      controllers.push_back(std::make_unique<core::LibraController>(
          links.back().get(), &f.em, &f.classifier));
      sim::SessionScript script;
      script.duration_ms = 500.0;
      script.rx_trajectory =
          sim::Trajectory::stationary({10.0 + i, 6}, 180.0);
      members.push_back({envs.back().get(), links.back().get(),
                         controllers.back().get(), script});
    }
    sim::FleetConfig cfg;
    cfg.seed = 77;
    if (faulted) cfg.faults = faults::demo_plan(1234);
    benchmark::DoNotOptimize(sim::run_fleet(members, cfg));
  }
}
BENCHMARK(BM_FleetWithFaults)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sharded fleet engine at deployment scale. Args = {links, threads}
// (threads 0 = hardware concurrency). Each iteration builds a fresh fleet
// of `links` stations -- a 5-beam codebook and a small 4-wall room keep
// the per-link association sweep cheap enough that the tick pipeline, not
// world setup, dominates -- and runs it to completion; every 4th link gets
// a blockage episode so the classifier actually serves batched rows.
// World construction/teardown happens outside the timed region; the
// `links_per_s` rate (link-frames served per second of run_fleet wall
// time) is the number the CI gate tracks. The 100000-link grid point is
// the CI entry; the 1000000-link point exists for local runs and is kept
// out of the CI --benchmark_filter (it needs several GB of RAM, ~2.5 KB
// of mt19937 state per link before worlds).
void BM_FleetMillionLinks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto& f = Fixture::get();
  static const array::Codebook* small_codebook = [] {
    array::CodebookConfig cb;
    cb.num_beams = 5;
    return new array::Codebook(cb);
  }();
  static const env::Environment room = env::make_conference_room();

  struct World {
    std::vector<env::Environment> envs;
    std::vector<array::PhasedArray> arrays;  // [2i] = AP, [2i+1] = client
    std::vector<channel::Link> links;
    std::vector<core::LibraController> controllers;
    std::vector<sim::FleetLink> members;
  };

  std::int64_t frames = 0;
  std::int64_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    World w;
    w.envs.reserve(n);
    w.arrays.reserve(2 * n);
    w.links.reserve(n);
    w.controllers.reserve(n);
    w.members.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      w.envs.push_back(room);  // own copy: scripts mutate blockers
      w.arrays.emplace_back(geom::Vec2{1.0, 3.4}, 0.0, small_codebook);
      w.arrays.emplace_back(geom::Vec2{6.0 + (i % 4) * 0.8, 2.0 + (i % 3)},
                            180.0, small_codebook);
      w.links.emplace_back(&w.envs[i], &w.arrays[2 * i],
                           &w.arrays[2 * i + 1]);
      w.controllers.emplace_back(&w.links[i], &f.em, &f.classifier);
      sim::FleetLink member{&w.envs[i], &w.links[i], &w.controllers[i], {}};
      member.script.duration_ms = 20.0;
      member.script.rx_trajectory = sim::Trajectory::stationary(
          w.arrays[2 * i + 1].position(), 180.0);
      if (i % 4 == 0) {
        member.script.blockage.push_back({5.0, 18.0, {{4.0, 2.8}, 0.3, 35.0}});
      }
      w.members.push_back(member);
    }
    sim::FleetConfig cfg;
    cfg.seed = 99;
    cfg.num_threads = threads;
    state.ResumeTiming();
    const sim::FleetResult result = sim::run_fleet(w.members, cfg);
    frames += result.link_frames;
    rows += result.batched_rows;
    benchmark::DoNotOptimize(result.ticks);
    state.PauseTiming();
    w = World{};  // teardown of n worlds outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(frames);
  state.counters["links"] = static_cast<double>(n);
  state.counters["links_per_s"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["batched_rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_FleetMillionLinks)
    ->Args({100000, 0})
    ->Args({1000000, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The same 10^5-link grid point with the online trainer's row stream
// attached and the decide phase served through its generation-tagged swap
// slot (core/trainer.h) -- the costs the serving path pays for online
// learning: the wants() sampling hash per inference decision, the RowRing
// offers for sampled rows, and the per-batch ModelSlot pin. The background
// fit thread is deliberately NOT started: fits happen off-path by
// construction, so what this grid point gates (vs BM_FleetMillionLinks at
// the same {links, threads} in BENCH_baseline.json) is the pure on-path
// overhead, which must stay within a few percent.
void BM_FleetOnlineTrainer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto& f = Fixture::get();
  static const array::Codebook* small_codebook = [] {
    array::CodebookConfig cb;
    cb.num_beams = 5;
    return new array::Codebook(cb);
  }();
  static const env::Environment room = env::make_conference_room();

  struct World {
    std::vector<env::Environment> envs;
    std::vector<array::PhasedArray> arrays;  // [2i] = AP, [2i+1] = client
    std::vector<channel::Link> links;
    std::vector<core::LibraController> controllers;
    std::vector<sim::FleetLink> members;
  };

  std::int64_t frames = 0;
  std::int64_t sampled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FleetTrainer trainer;
    trainer.seed_model(f.classifier.forest());
    World w;
    w.envs.reserve(n);
    w.arrays.reserve(2 * n);
    w.links.reserve(n);
    w.controllers.reserve(n);
    w.members.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      w.envs.push_back(room);
      w.arrays.emplace_back(geom::Vec2{1.0, 3.4}, 0.0, small_codebook);
      w.arrays.emplace_back(geom::Vec2{6.0 + (i % 4) * 0.8, 2.0 + (i % 3)},
                            180.0, small_codebook);
      w.links.emplace_back(&w.envs[i], &w.arrays[2 * i],
                           &w.arrays[2 * i + 1]);
      w.controllers.emplace_back(&w.links[i], &f.em, &f.classifier);
      sim::FleetLink member{&w.envs[i], &w.links[i], &w.controllers[i], {}};
      // Twice BM_FleetMillionLinks' 20 ms: a sampled decision resolves at
      // the link's NEXT observe, so links must outlive their first
      // decision for any TrainRow to reach the rings. links_per_s is a
      // per-frame-normalized rate, so the grid points stay comparable.
      member.script.duration_ms = 40.0;
      member.script.rx_trajectory = sim::Trajectory::stationary(
          w.arrays[2 * i + 1].position(), 180.0);
      if (i % 4 == 0) {
        member.script.blockage.push_back({5.0, 38.0, {{4.0, 2.8}, 0.3, 35.0}});
      }
      w.members.push_back(member);
    }
    sim::FleetConfig cfg;
    cfg.seed = 99;
    cfg.num_threads = threads;
    cfg.trainer = &trainer;
    cfg.backend = trainer.backend();
    state.ResumeTiming();
    const sim::FleetResult result = sim::run_fleet(w.members, cfg);
    frames += result.link_frames;
    sampled += result.trainer_rows_sampled;
    benchmark::DoNotOptimize(result.ticks);
    state.PauseTiming();
    w = World{};  // teardown of n worlds outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(frames);
  state.counters["links"] = static_cast<double>(n);
  state.counters["links_per_s"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["rows_sampled"] = static_cast<double>(sampled);
}
BENCHMARK(BM_FleetOnlineTrainer)
    ->Args({100000, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The trainer-side row stream in isolation: the wants() sampling hash per
// inference decision, the RowRing offer for each sampled row, and the
// periodic drain + canonical-sort + window/holdout ingest. Arg = sample
// rate in percent (5 = deployment default, 100 = every decision sampled,
// the ingest-dominated worst case). rows_per_s counts decisions, not
// sampled rows -- the number comparable to fleet decision throughput.
void BM_TrainerRowStream(benchmark::State& state) {
  auto& f = Fixture::get();
  core::FleetTrainerConfig cfg;
  cfg.sample_rate = static_cast<double>(state.range(0)) / 100.0;
  cfg.ring_capacity = 8192;
  cfg.window_rows = 8192;
  core::FleetTrainer trainer(cfg);
  trainer.seed_model(f.classifier.forest());
  trainer.attach_producers(1);
  const trace::FeatureVector features =
      trace::extract_features(f.training.records.front());
  constexpr std::size_t kDecisionsPerBatch = 4096;
  std::uint64_t seq = 0;
  std::int64_t ingested = 0;
  for (auto _ : state) {
    for (std::size_t d = 0; d < kDecisionsPerBatch; ++d, ++seq) {
      const std::uint32_t link = static_cast<std::uint32_t>(seq % 64);
      if (!trainer.wants(link, seq / 64)) continue;
      core::TrainRow row;
      row.tick = static_cast<std::int64_t>(seq);
      row.link = link;
      row.features = features;
      row.label = trace::Action::kBA;
      trainer.offer(0, std::move(row));
    }
    ingested += static_cast<std::int64_t>(trainer.ingest_now());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDecisionsPerBatch));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(kDecisionsPerBatch),
      benchmark::Counter::kIsRate);
  state.counters["rows_ingested"] = static_cast<double>(ingested);
}
BENCHMARK(BM_TrainerRowStream)
    ->Arg(5)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// One zero-pause model swap: compile the candidate forest into its flat
// arena and install it into the generation-tagged ModelSlot while reader
// threads keep pinning and serving vote batches -- the publish cost
// handle_model_push and FleetTrainer::train_once pay per shipped
// candidate, and the proof that a swap never blocks a serving batch for
// the arena-build duration. Arg = candidate trees.
void BM_ModelSwapLatency(benchmark::State& state) {
  auto& f = Fixture::get();
  ml::RandomForestConfig cfg;
  cfg.num_trees = static_cast<int>(state.range(0));
  cfg.num_threads = 1;
  ml::RandomForest rf(cfg);
  util::Rng rng(4);
  rf.fit(f.train_ds, rng);

  core::ModelSlot slot;
  slot.install(ml::CompiledForest(rf));
  const ml::DataSet rows = replicate_rows(f.train_ds, 64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&slot, &rows, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto model = slot.pin();
        benchmark::DoNotOptimize(model->forest.vote_fractions_batch(rows));
      }
    });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot.install(ml::CompiledForest(rf)));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  state.counters["generation"] = static_cast<double>(slot.generation());
}
BENCHMARK(BM_ModelSwapLatency)
    ->Arg(20)
    ->Arg(60)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// A classify round trip through the loopback decision daemon: encode the
// batch, cross a unix socket, run the compiled forest server-side, decode
// the verdict reply. Arg = rows per request. The delta against
// BM_CompiledForestBatch at the same row count is the wire + syscall tax
// the controller/minion split pays per decide batch.
void BM_RemoteClassifyLoopback(benchmark::State& state) {
  auto& f = Fixture::get();
  const std::size_t rows_n = static_cast<std::size_t>(state.range(0));
  rpc::ServerConfig scfg;
  scfg.unix_socket = "/tmp/libra_bench_rpc_" + std::to_string(::getpid()) +
                     ".sock";
  scfg.num_workers = 2;
  rpc::DecisionServer server(scfg);
  server.set_forest(f.classifier.forest());
  server.start();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  ccfg.deadline_ms = 10000.0;
  rpc::DecisionClient client(ccfg);
  const ml::DataSet data = replicate_rows(f.train_ds, rows_n);
  for (auto _ : state) {
    const std::optional<std::vector<std::vector<double>>> votes =
        client.classify(data);
    if (!votes.has_value()) state.SkipWithError("loopback classify failed");
    benchmark::DoNotOptimize(votes);
  }
  server.stop();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RemoteClassifyLoopback)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Telemetry overhead at a representative instrumentation site: one span,
// one counter bump, one histogram observation per iteration. Arg(0) = the
// runtime null-sink (set_enabled(false) early-out), Arg(1) = recording.
// The delta is the per-site cost run_fleet and classify_batch pay.
void BM_ObsOverhead(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("bench.obs_overhead.count");
  obs::Histogram& hist = reg.histogram("bench.obs_overhead.value");
  obs::set_enabled(record);
  double v = 0.0;
  for (auto _ : state) {
    OBS_SPAN("bench.obs_overhead");
    counter.inc();
    hist.observe(v);
    v += 1.0;
    benchmark::DoNotOptimize(v);
  }
  obs::set_enabled(true);
  obs::TraceBuffer::global().clear();  // don't pollute later exports
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1);

// One aggregator roll-up: snapshot the (well-populated, by this point in
// the bench binary) process registry, poll one synthetic daemon source,
// and fold both into the ring series. This is the periodic cost the
// background thread pays every rollup_period_ms on `libra serve`.
void BM_AggregatorRollup(benchmark::State& state) {
  obs::AggregatorConfig cfg;
  cfg.rollup_period_ms = 1e9;  // driven manually; the thread never fires
  obs::Aggregator agg(cfg);
  const obs::MetricsSnapshot remote = obs::Registry::global().snapshot();
  agg.add_source([&remote]() -> std::optional<obs::LabeledSnapshot> {
    return obs::LabeledSnapshot{"daemon", remote};
  });
  for (auto _ : state) {
    agg.rollup_now();
  }
  state.counters["series_bytes"] =
      static_cast<double>(agg.prometheus_text().size());
}
BENCHMARK(BM_AggregatorRollup)->Unit(benchmark::kMicrosecond);

// A full /metrics scrape -- HTTP round trip plus Prometheus rendering --
// while `writers` threads hammer a counter and a histogram. Arg = writer
// count (0 = quiescent registry). The scrape path must stay flat under
// write load: recording is wait-free and rendering reads the aggregator's
// rings, not the live shards.
void BM_ScrapeUnderLoad(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  obs::AggregatorConfig acfg;
  acfg.rollup_period_ms = 5.0;
  obs::Aggregator agg(acfg);
  agg.rollup_now();
  agg.start();
  obs::ScrapeServer server(agg);  // ephemeral port
  server.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int w = 0; w < writers; ++w) {
    load.emplace_back([&stop, w] {
      obs::Counter& c =
          obs::Registry::global().counter("bench.scrape_load.count");
      obs::Histogram& h =
          obs::Registry::global().histogram("bench.scrape_load.value");
      double v = static_cast<double>(w);
      while (!stop.load(std::memory_order_acquire)) {
        c.inc();
        h.observe(v);
        v += 1.0;
      }
    });
  }

  double bytes = 0.0;
  for (auto _ : state) {
    const std::optional<obs::HttpResponse> resp =
        obs::http_get("127.0.0.1", server.port(), "/metrics");
    if (!resp.has_value() || resp->status != 200) {
      state.SkipWithError("loopback scrape failed");
      break;
    }
    bytes += static_cast<double>(resp->body.size());
    benchmark::DoNotOptimize(resp->body);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : load) t.join();
  server.stop();
  agg.stop();
  if (state.iterations() > 0) {
    state.counters["scrape_bytes"] =
        bytes / static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_ScrapeUnderLoad)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_RayTraceLobby(benchmark::State& state) {
  const env::Environment lobby = env::make_lobby();
  const channel::PathTracer tracer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.trace(lobby, {2, 6}, {14, 8}));
  }
}
BENCHMARK(BM_RayTraceLobby);

// Reports the sweep's exact channel evaluations per sweep (exact_pairs, of
// 625), read from the mac.sweep.exact_pairs obs counter. The sweep benches
// run a fixed number of sweeps: the Rng stream runs on from one sweep to
// the next, so exact_pairs compares between runs and trees only over the
// same sweeps.
constexpr benchmark::IterationCount kSweepIterations = 4000;

void run_sweep_bench(benchmark::State& state, const channel::Link& link) {
  auto& f = Fixture::get();
  const phy::PhySampler sampler(&f.em);
  const mac::BeamTrainer trainer;
  util::Rng rng(5);
  const auto exact_pairs = [] {
    const auto* c = obs::Registry::global().snapshot().find_counter(
        "mac.sweep.exact_pairs");
    return c ? static_cast<double>(c->value) : 0.0;
  };
  const double before = exact_pairs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.exhaustive(link, sampler, rng));
  }
  if (state.iterations() > 0) {
    state.counters["exact_pairs"] =
        (exact_pairs() - before) / static_cast<double>(state.iterations());
  }
}

void BM_ExhaustiveSweep625(benchmark::State& state) {
  const env::Environment lobby = env::make_lobby();
  const array::Codebook cb;
  array::PhasedArray tx({2, 6}, 0, &cb);
  array::PhasedArray rx({14, 8}, 180, &cb);
  const channel::Link link(&lobby, &tx, &rx);
  run_sweep_bench(state, link);
}
BENCHMARK(BM_ExhaustiveSweep625)
    ->Iterations(kSweepIterations)
    ->Unit(benchmark::kMicrosecond);

// The storm workload's shape: a conference room with a blocker on the LOS
// and a bursty interferer, so the bound has both to see past.
void BM_ExhaustiveSweepStorm(benchmark::State& state) {
  env::Environment room = env::make_conference_room();
  const array::Codebook cb;
  array::PhasedArray tx({1.5, 3.4}, 0, &cb);
  array::PhasedArray rx({8.5, 4.2}, 180, &cb);
  channel::Link link(&room, &tx, &rx);
  room.add_blocker({{5.0, 3.8}, 0.3, 30.0});
  link.set_interferer(channel::Interferer{{6.0, 1.0}, 50.0, 0.5});
  run_sweep_bench(state, link);
}
BENCHMARK(BM_ExhaustiveSweepStorm)
    ->Iterations(kSweepIterations)
    ->Unit(benchmark::kMicrosecond);

// One sweep's raw draws: 1,600 engine words, about what a 25 x 25 sweep's
// 625 polar gaussians take. The stream runs on across iterations, so the
// 312-word refills cost what they cost in a session.
void BM_RngWords(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (int i = 0; i < 1600; ++i) acc ^= rng.word();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RngWords)->Unit(benchmark::kMicrosecond);

void BM_Sls80211ad(benchmark::State& state) {
  auto& f = Fixture::get();
  const env::Environment lobby = env::make_lobby();
  const array::Codebook cb;
  array::PhasedArray tx({2, 6}, 0, &cb);
  array::PhasedArray rx({14, 8}, 180, &cb);
  channel::Link link(&lobby, &tx, &rx);
  const phy::PhySampler sampler(&f.em);
  const mac::BeamTrainer trainer;
  util::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.sls_80211ad(link, sampler, rng));
  }
}
BENCHMARK(BM_Sls80211ad)->Unit(benchmark::kMicrosecond);

// 256-point PDP -> CSI magnitude spectrum, the util/fft.cpp hot path of
// extract_features' "FFT PDP Similarity".
void BM_Fft256(benchmark::State& state) {
  std::vector<double> pdp(256, 1e-9);
  pdp[10] = 1e-3;
  pdp[40] = 1e-5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::magnitude_spectrum(pdp));
  }
}
BENCHMARK(BM_Fft256);

// A controller whose feature seam the bench calls directly.
class FeatureProbe : public core::LinkController {
 public:
  using core::LinkController::LinkController;
  trace::FeatureVector features(const phy::PhyObservation& obs) const {
    return features_against_baseline(obs);
  }

 protected:
  void plan(core::DecisionRequest&) override {}
};

// One decision frame's PDP work on the steady workload's shape (fleetbench:
// conference room, 5-beam codebooks, the AP at the wall, the client facing
// it): materialize a deferred observation -- PDP, tap jitters, peak, ToF,
// CSI -- and compute its features against an already materialized
// baseline.
void BM_MaterializeObservation(benchmark::State& state) {
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const env::Environment room = env::make_conference_room();
  array::CodebookConfig cb_cfg;
  cb_cfg.num_beams = 5;
  const array::Codebook cb(cb_cfg);
  const env::Environment::BoundingBox box = room.bounding_box();
  const geom::Vec2 ap{box.min.x + 0.8, 0.5 * (box.min.y + box.max.y)};
  const geom::Vec2 client{box.min.x + 0.7 * (box.max.x - box.min.x),
                          box.min.y + 0.4 * (box.max.y - box.min.y)};
  array::PhasedArray tx(ap, 0.0, &cb);
  array::PhasedArray rx(client, (ap - client).angle_deg(), &cb);
  channel::Link link(&room, &tx, &rx);
  FeatureProbe ctl(&link, &em);
  util::Rng rng(7);
  ctl.start(rng);  // beam training and a deferred baseline
  const phy::PhySampler sampler(&em);
  // The first feature read materializes the baseline.
  benchmark::DoNotOptimize(ctl.features(
      sampler.observe(link, ctl.tx_beam(), ctl.rx_beam(), ctl.mcs(), rng)));
  const phy::PhyObservation deferred = sampler.observe_deferred(
      link, ctl.tx_beam(), ctl.rx_beam(), ctl.mcs(), rng);
  for (auto _ : state) {
    phy::PhyObservation obs = deferred;
    obs.materialize();
    benchmark::DoNotOptimize(ctl.features(obs));
  }
}
BENCHMARK(BM_MaterializeObservation);

// Pearson correlation over two aligned 256-tap PDPs -- the similarity
// kernel extract_features runs per frame for both PDP and CSI similarity.
void BM_PearsonSimilarity(benchmark::State& state) {
  std::vector<double> a(256), b(256);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(0.11 * static_cast<double>(i));
    b[i] = std::sin(0.11 * static_cast<double>(i) + 0.2) +
           0.003 * static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::pearson(a, b));
  }
}
BENCHMARK(BM_PearsonSimilarity);

// One dataset case's collection (Sec. 5.1): three exhaustive sweeps and
// five 9-MCS pair traces, of which only MCS 0's observation carries a PDP.
// The case is the training set's first; each iteration forks a fresh
// stream, as collect_dataset does per case.
void BM_CollectCase(benchmark::State& state) {
  phy::McsTable table;
  const phy::ErrorModel em(&table);
  const trace::TraceCollector collector(&em);
  trace::ScenarioSet set = trace::training_scenarios();
  const trace::Case& c = set.cases.front();
  env::Environment& environment =
      set.environments[static_cast<std::size_t>(c.env_index)];
  util::Rng rng(1);
  for (auto _ : state) {
    util::Rng case_rng = rng.fork();
    benchmark::DoNotOptimize(collector.collect(environment, c, case_rng));
  }
}
BENCHMARK(BM_CollectCase)->Unit(benchmark::kMicrosecond);

void BM_SimulatedEvent(benchmark::State& state) {
  auto& f = Fixture::get();
  const sim::EventSimulator simulator(f.gt, &f.classifier);
  const sim::EventParams p;
  util::Rng rng(7);
  const trace::CaseRecord& rec = f.training.records.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.run(rec, core::Strategy::kLibra, p, rng));
  }
}
BENCHMARK(BM_SimulatedEvent)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
