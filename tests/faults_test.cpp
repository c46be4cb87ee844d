// Fault injection & the degradation ladder (faults/faults.h, the
// observe/decide/apply seams of core::LinkController, sim/golden.h):
//
//   - property fuzz: randomized FaultPlans over mixed fleets never crash,
//     never leave the MCS/action/goodput domain, and replay bit-for-bit
//     from (fleet_seed, fault_seed);
//   - differential degradation: a LiBRA fleet under a 100% classifier
//     outage is frame-for-frame the RA-first heuristic fleet;
//   - empty/zero plans are bit-identical to an unfaulted run, and faulted
//     runs are invariant to the forest thread count;
//   - a golden digest pins the canonical faulted run against regressions;
//   - non-finite inputs are rejected (or demoted, per policy) at every
//     layer: extract_features, classify, classify_batch;
//   - the PHY mutators and the stale replay plan a deferred observation
//     exactly like an eager one, and a lazy baseline decides exactly like
//     an eager one.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "env/registry.h"
#include "faults/faults.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "sim/golden.h"
#include "test_helpers.h"

namespace libra {
namespace {

using libra::testing::make_record;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A trained 3-class classifier over clearly separated synthetic cases
// (same corpus as fleet_test), parameterized on forest thread count so
// thread invariance of faulted runs can be checked.
core::LibraClassifier make_classifier(int num_threads) {
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
  cfg.forest.num_threads = num_threads;
  core::LibraClassifier c(cfg);
  util::Rng rng(1);
  c.train(ds, {}, rng);
  return c;
}

const core::LibraClassifier& shared_classifier() {
  static const core::LibraClassifier clf = make_classifier(4);
  return clf;
}

const phy::ErrorModel& shared_error_model() {
  static const phy::McsTable table;
  static const phy::ErrorModel em(&table);
  return em;
}

// One station's whole world, self-contained so every run builds an
// identical fresh copy.
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

// A 3-station mixed fleet (2 LiBRA + 1 RA-first) with per-station
// impairments. `clf` may be nullptr to make every station RA-first.
std::vector<std::unique_ptr<Station>> build_stations(
    const array::Codebook* codebook, const core::LibraClassifier* clf,
    bool all_heuristic = false) {
  const core::LibraClassifier* c0 = all_heuristic ? nullptr : clf;
  std::vector<std::unique_ptr<Station>> stations;
  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{10, 6}, c0));
  stations[0]->script.duration_ms = 1200.0;
  stations[0]->script.rx_trajectory =
      sim::Trajectory::stationary({10, 6}, 180.0);
  stations[0]->script.blockage.push_back({400.0, 900.0, {{6, 6}, 0.3, 35.0}});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{12, 7}, c0));
  stations[1]->script.duration_ms = 1200.0;
  stations[1]->script.rx_trajectory =
      sim::Trajectory::walk({12, 7}, {17, 8}, 1200.0, geom::Vec2{2, 6});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{9, 5}, nullptr));
  stations[2]->script.duration_ms = 1200.0;
  stations[2]->script.rx_trajectory =
      sim::Trajectory::stationary({9, 5}, 180.0);
  stations[2]->script.interference.push_back(
      {300.0, 900.0, {{10, 1}, 50.0, 0.5}});
  return stations;
}

sim::FleetResult run_mixed_fleet(const core::LibraClassifier* clf,
                                 std::uint64_t fleet_seed,
                                 const faults::FaultPlan& plan,
                                 bool all_heuristic = false) {
  const array::Codebook codebook;
  auto stations = build_stations(&codebook, clf, all_heuristic);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.keep_frame_logs = true;
  cfg.faults = plan;
  return sim::run_fleet(members, cfg);
}

void expect_frame_logs_identical(const sim::FleetResult& a,
                                 const sim::FleetResult& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const sim::SessionResult& x = a.links[i];
    const sim::SessionResult& y = b.links[i];
    EXPECT_EQ(x.frames, y.frames) << "link " << i;
    EXPECT_EQ(x.bytes_mb, y.bytes_mb) << "link " << i;
    EXPECT_EQ(x.avg_goodput_mbps, y.avg_goodput_mbps) << "link " << i;
    EXPECT_EQ(x.adaptations_ba, y.adaptations_ba) << "link " << i;
    EXPECT_EQ(x.adaptations_ra, y.adaptations_ra) << "link " << i;
    EXPECT_EQ(x.outages, y.outages) << "link " << i;
    EXPECT_EQ(x.total_outage_ms, y.total_outage_ms) << "link " << i;
    ASSERT_EQ(x.frame_log.size(), y.frame_log.size()) << "link " << i;
    for (std::size_t f = 0; f < x.frame_log.size(); ++f) {
      const core::FrameReport& p = x.frame_log[f];
      const core::FrameReport& q = y.frame_log[f];
      ASSERT_EQ(p.t_ms, q.t_ms) << "link " << i << " frame " << f;
      ASSERT_EQ(p.mcs, q.mcs) << "link " << i << " frame " << f;
      ASSERT_EQ(p.goodput_mbps, q.goodput_mbps)
          << "link " << i << " frame " << f;
      ASSERT_EQ(p.ack, q.ack) << "link " << i << " frame " << f;
      ASSERT_EQ(p.action, q.action) << "link " << i << " frame " << f;
    }
  }
}

// ---------- property fuzz ----------

// A random but always-valid FaultPlan: 1-6 windows of random kinds,
// probabilities, spans, and kind-appropriate magnitudes.
faults::FaultPlan random_plan(util::Rng& meta, std::uint64_t fault_seed) {
  faults::FaultPlan plan;
  plan.seed = fault_seed;
  const int n = meta.uniform_int(1, 6);
  for (int w = 0; w < n; ++w) {
    const auto kind = static_cast<faults::FaultKind>(
        meta.uniform_int(0, faults::kNumFaultKinds - 1));
    const double p = meta.bernoulli(0.25) ? 1.0 : meta.uniform(0.0, 1.0);
    const double start = meta.uniform(0.0, 1200.0);
    const double end = meta.bernoulli(0.2)
                           ? faults::kForever
                           : start + meta.uniform(50.0, 800.0);
    double magnitude = 0.0;
    if (kind == faults::FaultKind::kClockSkew) {
      magnitude = meta.uniform(-0.5, 0.5);
    } else if (kind == faults::FaultKind::kTruncateFeatures) {
      magnitude = meta.uniform(0.0, 1.0);
    }
    plan.add(kind, p, start, end, magnitude);
  }
  plan.validate();
  return plan;
}

void expect_result_in_domain(const sim::FleetResult& result) {
  const int top = shared_error_model().table().max_mcs();
  for (std::size_t i = 0; i < result.links.size(); ++i) {
    const sim::SessionResult& link = result.links[i];
    EXPECT_GT(link.frames, 0) << "link " << i;
    EXPECT_TRUE(std::isfinite(link.bytes_mb)) << "link " << i;
    EXPECT_TRUE(std::isfinite(link.avg_goodput_mbps)) << "link " << i;
    EXPECT_GE(link.bytes_mb, 0.0) << "link " << i;
    for (std::size_t f = 0; f < link.frame_log.size(); ++f) {
      const core::FrameReport& r = link.frame_log[f];
      EXPECT_GE(r.mcs, 0) << "link " << i << " frame " << f;
      EXPECT_LE(r.mcs, top) << "link " << i << " frame " << f;
      EXPECT_TRUE(r.action == trace::Action::kBA ||
                  r.action == trace::Action::kRA ||
                  r.action == trace::Action::kNA)
          << "link " << i << " frame " << f;
      EXPECT_TRUE(std::isfinite(r.goodput_mbps))
          << "link " << i << " frame " << f;
      EXPECT_GE(r.goodput_mbps, 0.0) << "link " << i << " frame " << f;
    }
  }
}

// Seeded random FaultPlans over the mixed fleet: whatever the schedule
// throws at the pipeline, the run must stay in domain and replay
// bit-for-bit from (fleet_seed, fault_seed). Failing seed pairs are
// appended to faults_fuzz_failures.txt (uploaded as a CI artifact).
TEST(FaultsFuzz, RandomPlansStayInDomainAndReplay) {
  constexpr int kIterations = 8;
  util::Rng meta(20260805);
  for (int it = 0; it < kIterations; ++it) {
    const std::uint64_t fleet_seed = 100 + static_cast<std::uint64_t>(it);
    const std::uint64_t fault_seed =
        static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 20));
    const faults::FaultPlan plan = random_plan(meta, fault_seed);
    SCOPED_TRACE("iteration " + std::to_string(it) + " fleet_seed " +
                 std::to_string(fleet_seed) + " fault_seed " +
                 std::to_string(fault_seed));

    const sim::FleetResult first =
        run_mixed_fleet(&shared_classifier(), fleet_seed, plan);
    expect_result_in_domain(first);
    const sim::FleetResult replay =
        run_mixed_fleet(&shared_classifier(), fleet_seed, plan);
    expect_frame_logs_identical(first, replay);

    if (::testing::Test::HasFailure()) {
      std::ofstream out("faults_fuzz_failures.txt", std::ios::app);
      out << "fleet_seed=" << fleet_seed << " fault_seed=" << fault_seed
          << " windows=" << plan.windows.size() << "\n";
      return;  // later iterations would only pile on noise
    }
  }
}

// ---------- differential degradation ----------

// Under a 100% classifier outage the LiBRA fleet must reduce exactly to
// the missing-ACK heuristic: frame-for-frame bit-identical to a fleet
// running RaFirstController from the start (the outage rung substitutes
// the same rule and neither path consumes any extra randomness).
TEST(FaultsDegradation, FullOutageReducesToRaFirstHeuristic) {
  faults::FaultPlan outage;
  outage.seed = 5;
  outage.add(faults::FaultKind::kClassifierOutage, 1.0);

  const sim::FleetResult degraded =
      run_mixed_fleet(&shared_classifier(), 77, outage);
  const sim::FleetResult heuristic = run_mixed_fleet(
      nullptr, 77, faults::FaultPlan{}, /*all_heuristic=*/true);
  expect_frame_logs_identical(degraded, heuristic);
}

// ---------- identity & invariance ----------

// An empty plan must leave the run bit-identical to one with no fault
// machinery at all, and a plan whose windows can never fire (p = 0) must
// behave the same (its draws come from the disjoint fault stream).
TEST(FaultsIdentity, EmptyAndZeroProbabilityPlansAreNoOps) {
  const sim::FleetResult clean =
      run_mixed_fleet(&shared_classifier(), 77, faults::FaultPlan{});

  faults::FaultPlan zero;
  zero.seed = 9;
  zero.add(faults::FaultKind::kDropAck, 0.0);
  zero.add(faults::FaultKind::kGarbagePhy, 0.0, 100.0, 900.0);
  const sim::FleetResult zeroed = run_mixed_fleet(&shared_classifier(), 77, zero);

  expect_frame_logs_identical(clean, zeroed);
}

// Faulted runs obey the fleet determinism contract: the forest thread
// count must not change a single frame.
TEST(FaultsIdentity, FaultedRunInvariantToForestThreadCount) {
  const core::LibraClassifier serial = make_classifier(1);
  const core::LibraClassifier pooled = make_classifier(4);
  const faults::FaultPlan plan = faults::demo_plan(42);
  const sim::FleetResult a = run_mixed_fleet(&serial, 77, plan);
  const sim::FleetResult b = run_mixed_fleet(&pooled, 77, plan);
  expect_frame_logs_identical(a, b);
}

// ---------- golden digest ----------

// The canonical faulted run, pinned. If a deliberate behavior change moves
// this digest, refresh it with `build/tools/fault_digest` and paste the
// value it prints.
TEST(FaultsGolden, CanonicalDigestIsStable) {
  const sim::FleetResult result = sim::run_canonical_faulted_fleet(
      sim::kGoldenFleetSeed, sim::kGoldenFaultSeed);
  EXPECT_EQ(sim::degradation_digest(result), sim::kGoldenDigest);
  // And the digest derives from a real run: reruns agree, here with
  // telemetry switched off at runtime, which must not move it either
  // (telemetry is observation-only). The guard restores the switch even
  // when an assertion fails.
  struct TelemetryOff {
    TelemetryOff() { obs::set_enabled(false); }
    ~TelemetryOff() { obs::set_enabled(true); }
  };
  const TelemetryOff off;
  const sim::FleetResult again = sim::run_canonical_faulted_fleet(
      sim::kGoldenFleetSeed, sim::kGoldenFaultSeed);
  EXPECT_EQ(sim::degradation_digest(again), sim::kGoldenDigest);
  EXPECT_EQ(sim::degradation_digest(again), sim::degradation_digest(result));
}

// ---------- non-finite input rejection ----------

TEST(FaultsValidation, ExtractFeaturesRejectsNonFiniteMetrics) {
  trace::CaseRecord rec = make_record(6, 4, 5);
  rec.new_at_init_pair.snr_db = kNan;
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);

  rec = make_record(6, 4, 5);
  rec.init_best.noise_dbm = kInf;
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);

  // Control: the untouched record extracts fine.
  const trace::FeatureVector f = trace::extract_features(make_record(6, 4, 5));
  for (const double v : f.v) EXPECT_TRUE(std::isfinite(v));
}

TEST(FaultsValidation, ExtractFeaturesRejectsTruncatedCdrVector) {
  trace::CaseRecord rec = make_record(6, 4, 5);
  // Chop the per-MCS CDR vector below init_mcs: the lookup must throw, not
  // read out of bounds.
  rec.new_at_init_pair.cdr.resize(3);
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);
  rec.new_at_init_pair.cdr.clear();
  EXPECT_THROW(trace::extract_features(rec), std::invalid_argument);
}

TEST(FaultsValidation, ClassifyRejectsNonFiniteFeatures) {
  const core::LibraClassifier& clf = shared_classifier();
  trace::FeatureVector bad;
  bad.v = {1.0, 2.0, kNan, 0.5, 0.5, 0.9, 6.0};
  util::Rng rng(3);
  EXPECT_THROW(clf.classify(bad, rng), std::invalid_argument);

  std::vector<trace::FeatureVector> rows(2);
  rows[0].v = {1.0, 2.0, 3.0, 0.5, 0.5, 0.9, 6.0};
  rows[1].v = {1.0, kInf, 3.0, 0.5, 0.5, 0.9, 6.0};
  util::Rng r0(4), r1(5);
  std::vector<util::Rng*> rngs{&r0, &r1};
  try {
    clf.classify_batch(rows, rngs);
    FAIL() << "classify_batch accepted a non-finite row";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
}

// ---------- plan validation ----------

TEST(FaultsValidation, PlanValidateRejectsMalformedWindows) {
  faults::FaultPlan p;
  p.add(faults::FaultKind::kDropAck, 1.5);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kDropAck, -0.1);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kStalePhy, 0.5, 500.0, 100.0);  // inverted
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kStalePhy, 0.5, kNan, 100.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kClockSkew, 1.0, 0.0, faults::kForever, -1.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p.windows.clear();
  p.add(faults::FaultKind::kTruncateFeatures, 1.0, 0.0, faults::kForever, 1.5);
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // The shipped demo plan must of course be valid.
  EXPECT_NO_THROW(faults::demo_plan(7).validate());

  // And run_fleet validates up front.
  faults::FaultPlan bad;
  bad.add(faults::FaultKind::kDropAck, 2.0);
  EXPECT_THROW(run_mixed_fleet(&shared_classifier(), 77, bad),
               std::invalid_argument);
}

TEST(FaultsValidation, HelpersPoisonAndTruncateObservations) {
  phy::PhyObservation obs;
  obs.snr_db = 20.0;
  obs.noise_dbm = -74.0;
  obs.cdr = 0.9;
  obs.throughput_mbps = 1000.0;
  obs.tof_ns = 20.0;
  obs.pdp.assign(64, 1e-9);
  obs.csi.assign(32, 1.0);

  phy::PhyObservation poisoned = obs;
  faults::corrupt_observation(poisoned);
  EXPECT_TRUE(std::isnan(poisoned.snr_db));
  EXPECT_TRUE(std::isinf(poisoned.noise_dbm));
  EXPECT_FALSE(poisoned.tof_ns.has_value());

  phy::PhyObservation chopped = obs;
  faults::truncate_observation(chopped, 0.25);
  EXPECT_EQ(chopped.pdp.size(), 16u);
  EXPECT_EQ(chopped.csi.size(), 8u);
  faults::truncate_observation(chopped, 0.0);  // at least one tap survives
  EXPECT_EQ(chopped.pdp.size(), 1u);
  EXPECT_EQ(chopped.csi.size(), 1u);
}

// A LiBRA controller whose steady-state planning seam is callable on a
// hand-built request, so one frame can be planned from an eager and from a
// deferred observation of the same draws.
class PlanProbe : public core::LibraController {
 public:
  using core::LibraController::LibraController;
  void plan_request(core::DecisionRequest& request) { plan_frame(request); }
  trace::FeatureVector features(const phy::PhyObservation& obs) const {
    return features_against_baseline(obs);
  }
};

struct PlanProbeWorld {
  array::Codebook codebook;
  env::Environment env = env::make_lobby();
  array::PhasedArray ap{{2, 6}, 0.0, &codebook};
  array::PhasedArray client{{10, 6}, 180.0, &codebook};
  channel::Link link{&env, &ap, &client};
  phy::PhySampler sampler{&shared_error_model()};

  // Started, and one off-period frame (a usable default observation) into
  // the kDecisionPeriodFrames = 2 cadence, so the next planned frame decides.
  std::unique_ptr<PlanProbe> started_controller() {
    static_assert(core::kDecisionPeriodFrames == 2);
    auto c = std::make_unique<PlanProbe>(&link, &shared_error_model(),
                                         &shared_classifier());
    util::Rng rng(5);
    c->start(rng);
    core::DecisionRequest off_period;
    c->plan_request(off_period);
    EXPECT_FALSE(off_period.needs_inference());
    EXPECT_FALSE(off_period.hold_last_mcs);
    return c;
  }
};

// The PHY fault mutators and the stale replay act on a deferred
// observation exactly as on an eager one: the planned request -- features,
// verdict, hold_last_mcs -- is the same bit for bit. A mutator that did not
// materialize first would let a corrupted observation later materialize
// as clean data.
TEST(FaultsDeferredPhy, MutatedDeferredObservationPlansLikeEager) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  PlanProbeWorld world;
  const faults::FaultKind kinds[] = {faults::FaultKind::kGarbagePhy,
                                     faults::FaultKind::kTruncateFeatures,
                                     faults::FaultKind::kStalePhy};
  int inferred = 0;
  for (const faults::FaultKind kind : kinds) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
      SCOPED_TRACE(std::string(faults::to_string(kind)) + " seed " +
                   std::to_string(seed));
      std::unique_ptr<PlanProbe> eager_ctl = world.started_controller();
      std::unique_ptr<PlanProbe> deferred_ctl = world.started_controller();
      const array::BeamId tx = eager_ctl->tx_beam();
      const array::BeamId rx = eager_ctl->rx_beam();
      const phy::McsIndex mcs = eager_ctl->mcs();
      util::Rng eager_rng(seed);
      util::Rng deferred_rng(seed);
      // The clean frame kStalePhy replays, then this frame's observation.
      const phy::PhyObservation eager_prev =
          world.sampler.observe(world.link, tx, rx, mcs, eager_rng);
      const phy::PhyObservation deferred_prev =
          world.sampler.observe_deferred(world.link, tx, rx, mcs,
                                         deferred_rng);
      core::DecisionRequest eager;
      core::DecisionRequest deferred;
      eager.obs = world.sampler.observe(world.link, tx, rx, mcs, eager_rng);
      deferred.obs =
          world.sampler.observe_deferred(world.link, tx, rx, mcs,
                                         deferred_rng);
      ASSERT_TRUE(deferred.obs.deferred());
      const double keep = 0.1 * static_cast<double>(seed);
      switch (kind) {
        case faults::FaultKind::kGarbagePhy:
          faults::corrupt_observation(eager.obs);
          faults::corrupt_observation(deferred.obs);
          ASSERT_FALSE(deferred.obs.deferred());
          for (const double tap : deferred.obs.pdp) {
            ASSERT_TRUE(std::isnan(tap));
          }
          break;
        case faults::FaultKind::kTruncateFeatures:
          faults::truncate_observation(eager.obs, keep);
          faults::truncate_observation(deferred.obs, keep);
          ASSERT_FALSE(deferred.obs.deferred());
          EXPECT_EQ(deferred.obs.pdp.size(), eager.obs.pdp.size());
          break;
        default:
          eager.obs = eager_prev;
          deferred.obs = deferred_prev;
          break;
      }
      eager_ctl->plan_request(eager);
      deferred_ctl->plan_request(deferred);

      EXPECT_EQ(deferred.hold_last_mcs, eager.hold_last_mcs);
      EXPECT_EQ(deferred.precomputed, eager.precomputed);
      EXPECT_EQ(deferred.outage_fallback, eager.outage_fallback);
      ASSERT_EQ(deferred.needs_inference(), eager.needs_inference());
      for (std::size_t i = 0; i < eager.features.v.size(); ++i) {
        EXPECT_EQ(bits(deferred.features.v[i]), bits(eager.features.v[i]))
            << "feature " << i;
      }
      trace::Action eager_verdict = eager.resolved_without_inference();
      trace::Action deferred_verdict = deferred.resolved_without_inference();
      if (eager.needs_inference()) {
        ++inferred;
        util::Rng e(seed + 100), d(seed + 100);
        eager_verdict = eager.classifier->classify(eager.features, e);
        deferred_verdict = deferred.classifier->classify(deferred.features, d);
      }
      EXPECT_EQ(deferred_verdict, eager_verdict);
      EXPECT_TRUE(deferred_rng.engine() == eager_rng.engine());
    }
  }
  EXPECT_GT(inferred, 0);  // the comparison reached the classifier
}

// Features are never computed from a PDP that was not materialized.
TEST(FaultsDeferredPhy, FeaturesRejectPendingObservation) {
  PlanProbeWorld world;
  std::unique_ptr<PlanProbe> ctl = world.started_controller();
  util::Rng rng(9);
  phy::PhyObservation obs = world.sampler.observe_deferred(
      world.link, ctl->tx_beam(), ctl->rx_beam(), ctl->mcs(), rng);
  EXPECT_THROW(ctl->features(obs), std::logic_error);
  obs.materialize();
  EXPECT_NO_THROW(ctl->features(obs));
}

// ---------- lazy baselines ----------

// A LiBRA controller whose baseline can be inspected, and forced eager.
class BaselineProbe : public core::LibraController {
 public:
  using core::LibraController::LibraController;
  bool baseline_pending() const { return baseline_ && baseline_->deferred(); }
  void materialize_baseline() {
    if (baseline_) baseline_->materialize();
  }
};

// One scripted link with its own world (SessionDriver mutates blockers):
// a blockage episode, a walk that re-traces every frame, fading, and the
// demo fault plan, so the RA walk rebaselines several times mid-run.
struct BaselineWorld {
  explicit BaselineWorld(const faults::FaultPlan& faults = plan())
      : ctl(&link, &shared_error_model(), &shared_classifier()),
        injector(&faults, util::Rng(faults.seed).fork()),
        driver(env, link, ctl, script(), false) {
    ctl.set_fault_injector(&injector);
  }
  static const faults::FaultPlan& plan() {
    static const faults::FaultPlan p = faults::demo_plan(21);
    return p;
  }
  // The demo plan plus a classifier outage for the whole session: every
  // decision-due frame degrades to the missing-ACK rule, so no classifier
  // decision is ever due. A 100% window consumes no fault draws.
  static const faults::FaultPlan& outage_plan() {
    static const faults::FaultPlan p = [] {
      faults::FaultPlan out = faults::demo_plan(21);
      out.add(faults::FaultKind::kClassifierOutage, 1.0);
      return out;
    }();
    return p;
  }
  static const sim::SessionScript& script() {
    static const sim::SessionScript s = [] {
      sim::SessionScript out;
      out.duration_ms = 3000.0;
      out.rx_trajectory = sim::Trajectory(
          {{0.0, {10, 6}, 180.0},
           {1500.0, {10, 6}, 180.0},
           {2500.0, {13, 4}, 170.0},
           {3000.0, {13, 4}, 170.0}});
      out.blockage.push_back({400.0, 1200.0, {{6, 6}, 0.4, 30.0}});
      out.fading = {1.0, 200.0};
      return out;
    }();
    return s;
  }

  array::Codebook codebook;
  env::Environment env = env::make_lobby();
  array::PhasedArray ap{{2, 6}, 0.0, &codebook};
  array::PhasedArray client{{10, 6}, 180.0, &codebook};
  channel::Link link{&env, &ap, &client};
  BaselineProbe ctl;
  faults::FaultInjector injector;
  sim::SessionDriver driver;
};

// start() and the walk's rebaseline leave the baseline pending; a
// controller that never reaches a decision frame never pays for it.
TEST(LazyBaseline, PendingUntilADecisionFrameReadsIt) {
  BaselineWorld world(BaselineWorld::outage_plan());
  util::Rng rng(3);
  world.driver.start(rng);
  EXPECT_TRUE(world.ctl.baseline_pending());
  int frames = 0;
  while (!world.driver.done()) {
    core::DecisionRequest request = world.driver.observe(rng);
    ASSERT_FALSE(request.needs_inference());
    world.driver.apply(request.resolved_without_inference(), request, rng);
    ASSERT_TRUE(world.ctl.baseline_pending()) << "frame " << frames;
    ++frames;
  }
  EXPECT_GT(frames, 100);
}

// A lazy baseline, materialized whenever a decision frame first reads it
// (after the link may have moved, been blocked or faded), gives what an
// eager one materialized at capture gives: the same features, verdicts,
// Rng stream and controller state, frame by frame, with faults on.
TEST(LazyBaseline, MatchesEagerReferenceUnderFaults) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BaselineWorld lazy;
    BaselineWorld eager;
    util::Rng lazy_rng(seed);
    util::Rng eager_rng(seed);
    lazy.driver.start(lazy_rng);
    eager.driver.start(eager_rng);
    eager.ctl.materialize_baseline();
    int late_reads = 0;
    int inferred = 0;
    for (int frame = 0; !eager.driver.done(); ++frame) {
      ASSERT_FALSE(lazy.driver.done());
      const bool was_pending = lazy.ctl.baseline_pending();
      core::DecisionRequest l = lazy.driver.observe(lazy_rng);
      core::DecisionRequest e = eager.driver.observe(eager_rng);
      eager.ctl.materialize_baseline();
      if (was_pending && l.needs_inference()) ++late_reads;
      ASSERT_EQ(l.decision_due, e.decision_due) << "frame " << frame;
      ASSERT_EQ(l.needs_inference(), e.needs_inference()) << "frame " << frame;
      ASSERT_EQ(l.precomputed, e.precomputed) << "frame " << frame;
      ASSERT_EQ(l.hold_last_mcs, e.hold_last_mcs) << "frame " << frame;
      for (std::size_t i = 0; i < e.features.v.size(); ++i) {
        ASSERT_EQ(bits(l.features.v[i]), bits(e.features.v[i]))
            << "frame " << frame << " feature " << i;
      }
      trace::Action lv = l.resolved_without_inference();
      trace::Action ev = e.resolved_without_inference();
      if (e.needs_inference()) {
        ++inferred;
        lv = l.classifier->classify(l.features, lazy_rng);
        ev = e.classifier->classify(e.features, eager_rng);
      }
      ASSERT_EQ(lv, ev) << "frame " << frame;
      lazy.driver.apply(lv, l, lazy_rng);
      eager.driver.apply(ev, e, eager_rng);
      eager.ctl.materialize_baseline();
      ASSERT_EQ(l.report.action, e.report.action) << "frame " << frame;
      ASSERT_EQ(bits(l.report.goodput_mbps), bits(e.report.goodput_mbps))
          << "frame " << frame;
      ASSERT_TRUE(lazy_rng.engine() == eager_rng.engine())
          << "frame " << frame;
      ASSERT_EQ(lazy.ctl.mcs(), eager.ctl.mcs()) << "frame " << frame;
      ASSERT_EQ(lazy.ctl.tx_beam(), eager.ctl.tx_beam()) << "frame " << frame;
      ASSERT_EQ(lazy.ctl.rx_beam(), eager.ctl.rx_beam()) << "frame " << frame;
      ASSERT_EQ(bits(lazy.ctl.time_ms()), bits(eager.ctl.time_ms()))
          << "frame " << frame;
    }
    EXPECT_TRUE(lazy.driver.done());
    const sim::SessionResult lr = lazy.driver.finish();
    const sim::SessionResult er = eager.driver.finish();
    EXPECT_EQ(bits(lr.bytes_mb), bits(er.bytes_mb));
    EXPECT_EQ(lr.adaptations_ba, er.adaptations_ba);
    EXPECT_EQ(lr.adaptations_ra, er.adaptations_ra);
    // The comparison reached the classifier, and some of those decisions
    // read a baseline that was still pending.
    EXPECT_GT(inferred, 0);
    EXPECT_GT(late_reads, 0);
  }
}

}  // namespace
}  // namespace libra
