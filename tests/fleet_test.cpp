// Fleet serving (sim/fleet.h): the lockstep batched decision engine must be
// an exact refactoring of N independent sessions -- same per-link results,
// bit for bit, for any forest thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/controller.h"
#include "core/decision_backend.h"
#include "env/registry.h"
#include "json_mini.h"
#include "obs/span.h"
#include "sim/fleet.h"
#include "sim/golden.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::make_record;

// A trained 3-class classifier over clearly separated synthetic cases,
// with a multi-threaded forest: the fleet contract must hold under
// parallel batched inference.
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
  cfg.forest.num_threads = 4;  // num_threads = K in the fleet contract
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

// One station's whole world, self-contained so fleet and serial reference
// runs can each build an identical fresh copy.
struct Station {
  env::Environment env;
  array::PhasedArray ap;
  array::PhasedArray client;
  channel::Link link;
  std::unique_ptr<core::LinkController> controller;
  sim::SessionScript script;

  // `clf` = the LiBRA classifier serving this station, or nullptr for the
  // RA-first baseline controller.
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
          &link, &shared_error_model(), core::ControllerConfig{});
    }
  }
};

// A 4-station mixed fleet with per-station impairments and staggered
// session lengths (station 3 finishes early and sits out later ticks).
std::vector<std::unique_ptr<Station>> build_stations(
    const array::Codebook* codebook,
    const core::LibraClassifier* clf = &fleet_classifier()) {
  std::vector<std::unique_ptr<Station>> stations;
  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{10, 6}, clf));
  stations[0]->script.duration_ms = 2000.0;
  stations[0]->script.rx_trajectory =
      sim::Trajectory::stationary({10, 6}, 180.0);
  stations[0]->script.blockage.push_back({600.0, 1400.0, {{6, 6}, 0.3, 35.0}});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{12, 7}, clf));
  stations[1]->script.duration_ms = 2000.0;
  stations[1]->script.rx_trajectory =
      sim::Trajectory::walk({12, 7}, {18, 8}, 2000.0, geom::Vec2{2, 6});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{9, 5}, nullptr));
  stations[2]->script.duration_ms = 2000.0;
  stations[2]->script.rx_trajectory =
      sim::Trajectory::stationary({9, 5}, 180.0);
  stations[2]->script.interference.push_back(
      {500.0, 1500.0, {{10, 1}, 50.0, 0.5}});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{11, 6}, clf));
  stations[3]->script.duration_ms = 800.0;  // early finisher
  stations[3]->script.rx_trajectory =
      sim::Trajectory::stationary({11, 6}, 180.0);
  return stations;
}

TEST(Fleet, BitIdenticalToIndependentSessions) {
  const array::Codebook codebook;
  constexpr std::uint64_t kSeed = 77;

  // Fleet run: lockstep ticks, batched inference.
  auto fleet_stations = build_stations(&codebook);
  std::vector<sim::FleetLink> members;
  for (auto& s : fleet_stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = kSeed;
  cfg.keep_frame_logs = true;
  const sim::FleetResult fleet = sim::run_fleet(members, cfg);
  ASSERT_EQ(fleet.links.size(), fleet_stations.size());
  EXPECT_GT(fleet.ticks, 0);
  EXPECT_GT(fleet.batched_rows, 0);  // the LiBRA stations used the engine
  EXPECT_EQ(fleet.tick_latency_us.count(),
            static_cast<std::size_t>(fleet.ticks));

  // Serial reference: independent sessions on the same forked streams.
  auto serial_stations = build_stations(&codebook);
  util::Rng fleet_rng(kSeed);
  for (std::size_t i = 0; i < serial_stations.size(); ++i) {
    util::Rng link_rng = fleet_rng.fork();
    Station& s = *serial_stations[i];
    const sim::SessionResult serial = sim::run_session(
        s.env, s.link, *s.controller, s.script, link_rng,
        /*keep_frame_log=*/true);
    const sim::SessionResult& batched = fleet.links[i];

    EXPECT_EQ(batched.frames, serial.frames) << "link " << i;
    EXPECT_EQ(batched.bytes_mb, serial.bytes_mb) << "link " << i;
    EXPECT_EQ(batched.avg_goodput_mbps, serial.avg_goodput_mbps)
        << "link " << i;
    EXPECT_EQ(batched.adaptations_ba, serial.adaptations_ba) << "link " << i;
    EXPECT_EQ(batched.adaptations_ra, serial.adaptations_ra) << "link " << i;
    EXPECT_EQ(batched.outages, serial.outages) << "link " << i;
    EXPECT_EQ(batched.total_outage_ms, serial.total_outage_ms)
        << "link " << i;
    ASSERT_EQ(batched.frame_log.size(), serial.frame_log.size())
        << "link " << i;
    for (std::size_t fidx = 0; fidx < serial.frame_log.size(); ++fidx) {
      const core::FrameReport& a = batched.frame_log[fidx];
      const core::FrameReport& b = serial.frame_log[fidx];
      ASSERT_EQ(a.t_ms, b.t_ms) << "link " << i << " frame " << fidx;
      ASSERT_EQ(a.mcs, b.mcs) << "link " << i << " frame " << fidx;
      ASSERT_EQ(a.goodput_mbps, b.goodput_mbps)
          << "link " << i << " frame " << fidx;
      ASSERT_EQ(a.ack, b.ack) << "link " << i << " frame " << fidx;
      ASSERT_EQ(a.action, b.action) << "link " << i << " frame " << fidx;
    }
  }
}

// Per-link results from one fleet run, flattened for comparison.
std::vector<sim::SessionResult> run_build_stations_fleet(
    const array::Codebook* codebook, std::uint64_t seed,
    const core::LibraClassifier* clf = &fleet_classifier(), int shards = 0,
    int num_threads = 1, core::DecisionBackend* backend = nullptr) {
  auto stations = build_stations(codebook, clf);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.keep_frame_logs = true;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  cfg.backend = backend;
  return sim::run_fleet(members, cfg).links;
}

// Full bit-identity check between two per-link result sets, frame logs
// included (every float compared with ==, the determinism contract).
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

// The sharding contract on the mixed 4-station fleet: ANY (shards,
// num_threads) combination -- serial multi-shard, threaded, more shards
// than links -- must reproduce the legacy single-shard serial run bit for
// bit.
TEST(Fleet, ShardThreadGridBitIdentical) {
  const array::Codebook codebook;
  const std::vector<sim::SessionResult> baseline =
      run_build_stations_fleet(&codebook, 77, &fleet_classifier(),
                               /*shards=*/1, /*num_threads=*/1);
  constexpr struct {
    int shards;
    int threads;
  } kGrid[] = {{2, 1}, {3, 1}, {4, 1}, {0, 4}, {2, 4}, {4, 2}, {9, 3}};
  for (const auto& g : kGrid) {
    const std::vector<sim::SessionResult> run = run_build_stations_fleet(
        &codebook, 77, &fleet_classifier(), g.shards, g.threads);
    expect_links_identical(baseline, run,
                           "shards=" + std::to_string(g.shards) +
                               " threads=" + std::to_string(g.threads));
  }
}

TEST(Fleet, ShardsClampedToLinkCountAndReported) {
  const array::Codebook codebook;
  auto stations = build_stations(&codebook);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = 77;
  cfg.shards = 64;  // more shards than links
  EXPECT_EQ(sim::run_fleet(members, cfg).shards_used, 4);
}

TEST(Fleet, NegativeShardOrThreadCountThrows) {
  const array::Codebook codebook;
  Station station(&codebook, {10, 6}, nullptr);
  std::vector<sim::FleetLink> members;
  members.push_back({&station.env, &station.link, station.controller.get(),
                     station.script});
  sim::FleetConfig bad_shards;
  bad_shards.shards = -1;
  EXPECT_THROW(sim::run_fleet(members, bad_shards), std::invalid_argument);
  sim::FleetConfig bad_threads;
  bad_threads.num_threads = -2;
  EXPECT_THROW(sim::run_fleet(members, bad_threads), std::invalid_argument);
}

// Telemetry is observation-only: disabling it at runtime must leave every
// frame of every link bit-identical -- no counter, span, or clock read may
// feed back into RNG draws or decisions.
TEST(Fleet, TelemetryOnOffBitIdentical) {
  const array::Codebook codebook;
  const std::vector<sim::SessionResult> with_obs =
      run_build_stations_fleet(&codebook, 77);
  obs::set_enabled(false);
  const std::vector<sim::SessionResult> without_obs =
      run_build_stations_fleet(&codebook, 77);
  obs::set_enabled(true);

  ASSERT_EQ(with_obs.size(), without_obs.size());
  for (std::size_t i = 0; i < with_obs.size(); ++i) {
    const sim::SessionResult& a = with_obs[i];
    const sim::SessionResult& b = without_obs[i];
    EXPECT_EQ(a.frames, b.frames) << "link " << i;
    EXPECT_EQ(a.bytes_mb, b.bytes_mb) << "link " << i;
    EXPECT_EQ(a.avg_goodput_mbps, b.avg_goodput_mbps) << "link " << i;
    EXPECT_EQ(a.adaptations_ba, b.adaptations_ba) << "link " << i;
    EXPECT_EQ(a.adaptations_ra, b.adaptations_ra) << "link " << i;
    EXPECT_EQ(a.outages, b.outages) << "link " << i;
    EXPECT_EQ(a.total_outage_ms, b.total_outage_ms) << "link " << i;
    ASSERT_EQ(a.frame_log.size(), b.frame_log.size()) << "link " << i;
    for (std::size_t f = 0; f < a.frame_log.size(); ++f) {
      ASSERT_EQ(a.frame_log[f].t_ms, b.frame_log[f].t_ms)
          << "link " << i << " frame " << f;
      ASSERT_EQ(a.frame_log[f].mcs, b.frame_log[f].mcs)
          << "link " << i << " frame " << f;
      ASSERT_EQ(a.frame_log[f].goodput_mbps, b.frame_log[f].goodput_mbps)
          << "link " << i << " frame " << f;
      ASSERT_EQ(a.frame_log[f].ack, b.frame_log[f].ack)
          << "link " << i << " frame " << f;
      ASSERT_EQ(a.frame_log[f].action, b.frame_log[f].action)
          << "link " << i << " frame " << f;
    }
  }
}

// Votes from the pointer walk: each tree of the fitted forest predicts,
// and the fractions are the summed votes / num_trees.
class TreeVoteBackend final : public core::DecisionBackend {
 public:
  explicit TreeVoteBackend(const ml::RandomForest* forest) : forest_(forest) {}

  std::string_view name() const override { return "tree-vote"; }
  bool local() const override { return true; }
  bool available() override { return true; }
  double deadline_ms() const override {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<std::vector<double>> vote_batch(
      const ml::DataSet& rows) override {
    ++batches;
    const std::vector<ml::DecisionTree>& trees = forest_->trees();
    std::vector<std::vector<double>> out(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::vector<int> votes(
          static_cast<std::size_t>(forest_->num_classes()), 0);
      for (const ml::DecisionTree& tree : trees) {
        ++votes[static_cast<std::size_t>(tree.predict(rows.row(i)))];
      }
      for (const int v : votes) {
        out[i].push_back(static_cast<double>(v) /
                         static_cast<double>(trees.size()));
      }
    }
    return out;
  }

  int batches = 0;

 private:
  const ml::RandomForest* forest_;
};

// The compiled forest is a pure layout change: a fleet served by the
// classifier's compiled engine must be bit-identical, frame for frame, to
// the same fleet served by a plain per-tree pointer walk of the same
// forest.
TEST(Fleet, CompiledForestMatchesTreeWalkBackendBitIdentical) {
  const array::Codebook codebook;
  TreeVoteBackend tree_walk(&fleet_classifier().forest());
  const std::vector<sim::SessionResult> compiled =
      run_build_stations_fleet(&codebook, 77);
  const std::vector<sim::SessionResult> walked = run_build_stations_fleet(
      &codebook, 77, &fleet_classifier(), /*shards=*/0, /*num_threads=*/1,
      &tree_walk);
  ASSERT_GT(tree_walk.batches, 0);
  expect_links_identical(compiled, walked, "tree-walk backend");
}

#if LIBRA_OBS_ENABLED

// A fleet run's exported trace must be valid Chrome trace-event JSON and
// cover the tick phases plus the batched inference span (the acceptance
// check behind `libra simulate --trace-out`).
TEST(Fleet, TraceContainsFleetSpans) {
  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  const array::Codebook codebook;
  (void)run_build_stations_fleet(&codebook, 77);

  const std::string path = ::testing::TempDir() + "fleet_trace.json";
  buf.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const libra::testing::JsonValue root = libra::testing::parse_json(ss.str());
  const libra::testing::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool gather = false, decide = false, scatter = false, classify = false;
  for (const libra::testing::JsonValue& e : events->array) {
    const libra::testing::JsonValue* name = e.find("name");
    const libra::testing::JsonValue* ph = e.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");
    gather |= name->str == "fleet.gather";
    decide |= name->str == "fleet.decide";
    scatter |= name->str == "fleet.scatter";
    classify |= name->str == "classifier.classify_batch";
  }
  EXPECT_TRUE(gather);
  EXPECT_TRUE(decide);
  EXPECT_TRUE(scatter);
  EXPECT_TRUE(classify);
  buf.clear();
}

// The scrape rides back on FleetResult: phase histograms and tick counters
// must reflect the run that produced them.
TEST(Fleet, ResultCarriesMetricsSnapshot) {
  const array::Codebook codebook;
  auto stations = build_stations(&codebook);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  const sim::FleetResult result = sim::run_fleet(members, {});

  const auto* ticks = result.metrics.find_counter("fleet.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value, static_cast<std::uint64_t>(result.ticks));
  const auto* hist = result.metrics.find_histogram("fleet.tick_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->data.count, static_cast<std::uint64_t>(result.ticks));
  const auto* rows = result.metrics.find_counter("fleet.batched_rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_GE(rows->value, static_cast<std::uint64_t>(result.batched_rows));
}

#endif  // LIBRA_OBS_ENABLED

// A ~1k-link mixed-impairment fleet over a small codebook (5 beams keeps
// the per-link association sweep cheap enough to run a thousand of them in
// a unit test). Stations cycle through stationary / walker / blockage /
// interference worlds, a third run the RA-first baseline (two classifier
// groups per shard), and every 7th finishes early.
sim::FleetResult run_scale_fleet(const array::Codebook* codebook, int n,
                                 std::uint64_t seed, int shards,
                                 int num_threads) {
  std::vector<std::unique_ptr<Station>> stations;
  stations.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 pos{8.0 + (i % 11), 3.0 + (i % 5)};
    const core::LibraClassifier* clf =
        (i % 3 == 2) ? nullptr : &fleet_classifier();
    stations.push_back(std::make_unique<Station>(codebook, pos, clf));
    Station& s = *stations.back();
    s.script.duration_ms = (i % 7 == 6) ? 30.0 : 60.0;  // early finishers
    s.script.rx_trajectory = sim::Trajectory::stationary(pos, 180.0);
    switch (i % 4) {
      case 1:
        s.script.rx_trajectory = sim::Trajectory::walk(
            pos, {pos.x + 3.0, pos.y + 1.0}, s.script.duration_ms,
            geom::Vec2{2, 6});
        break;
      case 2:
        s.script.blockage.push_back({15.0, 45.0, {{6, 6}, 0.3, 35.0}});
        break;
      case 3:
        s.script.interference.push_back(
            {10.0, 40.0, {{pos.x + 2.0, 1.0}, 50.0, 0.5}});
        break;
      default:
        break;
    }
  }
  std::vector<sim::FleetLink> members;
  members.reserve(stations.size());
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.keep_frame_logs = true;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  return sim::run_fleet(members, cfg);
}

// Fleet-scale shard/thread invariance: the 1k-link run must produce
// bit-identical SessionResults AND the same frame-log digest at every
// point of the shard/thread grid.
TEST(Fleet, ThousandLinkShardThreadInvariant) {
  array::CodebookConfig cb;
  cb.num_beams = 5;
  const array::Codebook codebook(cb);
  constexpr int kLinks = 1000;

  const sim::FleetResult baseline =
      run_scale_fleet(&codebook, kLinks, 123, /*shards=*/1,
                      /*num_threads=*/1);
  ASSERT_EQ(baseline.links.size(), static_cast<std::size_t>(kLinks));
  EXPECT_EQ(baseline.shards_used, 1);
  EXPECT_GT(baseline.ticks, 0);
  EXPECT_GT(baseline.batched_rows, 0);  // classifier groups actually batched
  EXPECT_GT(baseline.link_frames, static_cast<std::int64_t>(kLinks));
  const std::uint64_t digest = sim::degradation_digest(baseline);

  constexpr struct {
    int shards;
    int threads;
  } kGrid[] = {{8, 1}, {0, 4}, {16, 4}};
  for (const auto& g : kGrid) {
    const sim::FleetResult run =
        run_scale_fleet(&codebook, kLinks, 123, g.shards, g.threads);
    const std::string tag = "shards=" + std::to_string(g.shards) +
                            " threads=" + std::to_string(g.threads);
    EXPECT_GT(run.shards_used, 1) << tag;
    EXPECT_EQ(sim::degradation_digest(run), digest) << tag;
    EXPECT_EQ(run.ticks, baseline.ticks) << tag;
    EXPECT_EQ(run.batched_rows, baseline.batched_rows) << tag;
    EXPECT_EQ(run.link_frames, baseline.link_frames) << tag;
    expect_links_identical(baseline.links, run.links, tag);
  }
}

// Faulted sharded replay: with a fault plan attached, a run is a pure
// function of (seed, fault seed) -- re-running at a different shard/thread
// count, or simply re-running, replays bit for bit.
TEST(Fleet, FaultedShardedRunReplaysBitForBit) {
  const array::Codebook codebook;
  const auto run = [&](int shards, int threads) {
    auto stations = build_stations(&codebook);
    std::vector<sim::FleetLink> members;
    for (auto& s : stations) {
      members.push_back({&s->env, &s->link, s->controller.get(), s->script});
    }
    sim::FleetConfig cfg;
    cfg.seed = 77;
    cfg.keep_frame_logs = true;
    cfg.shards = shards;
    cfg.num_threads = threads;
    cfg.faults = faults::demo_plan(1234);
    return sim::run_fleet(members, cfg);
  };
  const sim::FleetResult serial = run(1, 1);
  const sim::FleetResult sharded = run(3, 4);
  const sim::FleetResult replay = run(3, 4);
  const std::uint64_t digest = sim::degradation_digest(serial);
  EXPECT_EQ(sim::degradation_digest(sharded), digest);
  EXPECT_EQ(sim::degradation_digest(replay), digest);
  expect_links_identical(serial.links, sharded.links, "faulted sharded");
  expect_links_identical(sharded.links, replay.links, "faulted replay");
}

// The counter-overflow regression: every accounting field that aggregates
// across a 10^5-10^6-link fleet must be 64-bit, and accumulating past
// INT32_MAX through the actual result fields must not wrap.
TEST(Fleet, AccountingFieldsAreInt64) {
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::ticks), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::batched_rows), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::FleetResult::link_frames), std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::SessionResult::frames), std::int64_t>);
  static_assert(std::is_same_v<decltype(sim::SessionResult::adaptations_ba),
                               std::int64_t>);
  static_assert(std::is_same_v<decltype(sim::SessionResult::adaptations_ra),
                               std::int64_t>);
  static_assert(
      std::is_same_v<decltype(sim::SessionResult::outages), std::int64_t>);

  // The engine's accumulation pattern: per-group row counts (size_t)
  // summed into the result, 30 batches of 1e8 rows -- minutes of a
  // 10^5-link run -- lands at 3e9, past any int32.
  sim::FleetResult result;
  const std::size_t group_rows = 100'000'000;
  for (int i = 0; i < 30; ++i) {
    result.batched_rows += static_cast<std::int64_t>(group_rows);
    result.link_frames += static_cast<std::int64_t>(group_rows);
  }
  EXPECT_EQ(result.batched_rows, 3'000'000'000LL);
  EXPECT_GT(result.batched_rows,
            static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()));
  EXPECT_EQ(result.link_frames, 3'000'000'000LL);
}

TEST(Fleet, EmptyFleetFinishesImmediately) {
  const sim::FleetResult result = sim::run_fleet({}, {});
  EXPECT_TRUE(result.links.empty());
  EXPECT_EQ(result.ticks, 0);
  EXPECT_EQ(result.batched_rows, 0);
}

TEST(Fleet, NullMembersThrow) {
  sim::FleetLink bad;  // all nullptrs
  std::vector<sim::FleetLink> members{bad};
  EXPECT_THROW(sim::run_fleet(members, {}), std::invalid_argument);
}

TEST(Fleet, InvalidScriptThrows) {
  const array::Codebook codebook;
  Station station(&codebook, {10, 6}, nullptr);
  station.script.duration_ms = 0.0;
  std::vector<sim::FleetLink> members;
  members.push_back({&station.env, &station.link, station.controller.get(),
                     station.script});
  EXPECT_THROW(sim::run_fleet(members, {}), std::invalid_argument);
}

}  // namespace
}  // namespace libra
