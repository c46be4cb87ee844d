// Randomized property tests: seeded sweeps asserting structural invariants
// that must hold for ANY input, across the geometry, channel, PHY and ML
// layers.
#include <gtest/gtest.h>

#include <memory>

#include "channel/link.h"
#include "channel/path_tracer.h"
#include "env/registry.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "phy/error_model.h"
#include "trace/ground_truth.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace libra {
namespace {

class SeededProperty : public ::testing::TestWithParam<int> {};

// --- geometry: mirror is an involution and preserves distances to the line.
TEST_P(SeededProperty, MirrorInvolutionAndIsometry) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const geom::Segment line{{rng.uniform(-10, 10), rng.uniform(-10, 10)},
                             {rng.uniform(-10, 10), rng.uniform(-10, 10)}};
    if (geom::distance(line.a, line.b) < 1e-6) continue;
    const geom::Vec2 p{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const geom::Vec2 m = geom::mirror(p, line);
    const geom::Vec2 back = geom::mirror(m, line);
    EXPECT_NEAR(geom::distance(back, p), 0.0, 1e-9);
    // Distance to the (infinite) line is preserved: check via two points.
    EXPECT_NEAR(geom::distance(p, line.a), geom::distance(m, line.a), 1e-9);
    EXPECT_NEAR(geom::distance(p, line.b), geom::distance(m, line.b), 1e-9);
  }
}

// --- geometry: wrap_angle_deg is idempotent and 360-periodic.
TEST_P(SeededProperty, AngleWrapProperties) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-2000, 2000);
    const double w = geom::wrap_angle_deg(a);
    EXPECT_GT(w, -180.0 - 1e-9);
    EXPECT_LE(w, 180.0 + 1e-9);
    EXPECT_NEAR(geom::wrap_angle_deg(w), w, 1e-9);
    EXPECT_NEAR(geom::wrap_angle_deg(a + 360.0), w, 1e-9);
  }
}

// --- channel: path lengths are symmetric under Tx/Rx exchange (reciprocity
// of the geometry), and every path is at least the straight-line distance.
TEST_P(SeededProperty, RayTracerGeometricReciprocity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const env::Environment box("box",
                             env::rectangle_walls(18, 9, 7, 7, 7, 7));
  const channel::PathTracer tracer;
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 a{rng.uniform(1, 17), rng.uniform(1, 8)};
    const geom::Vec2 b{rng.uniform(1, 17), rng.uniform(1, 8)};
    if (geom::distance(a, b) < 0.5) continue;
    auto fwd = tracer.trace(box, a, b);
    auto rev = tracer.trace(box, b, a);
    ASSERT_EQ(fwd.size(), rev.size());
    std::vector<double> fl, rl;
    for (const auto& p : fwd) {
      EXPECT_GE(p.length_m, geom::distance(a, b) - 1e-9);
      fl.push_back(p.length_m);
    }
    for (const auto& p : rev) rl.push_back(p.length_m);
    std::sort(fl.begin(), fl.end());
    std::sort(rl.begin(), rl.end());
    for (std::size_t k = 0; k < fl.size(); ++k) {
      EXPECT_NEAR(fl[k], rl[k], 1e-6);
    }
  }
}

// --- channel: total received power never exceeds the aligned free-space
// bound and never increases when a blocker is added.
TEST_P(SeededProperty, BlockersNeverAddPower) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  env::Environment box("box", env::rectangle_walls(18, 9, 7, 7, 7, 7));
  const array::Codebook cb;
  array::PhasedArray tx({2, 4.5}, 0.0, &cb);
  array::PhasedArray rx({15, 4.5}, 180.0, &cb);
  channel::Link link(&box, &tx, &rx);
  for (int i = 0; i < 10; ++i) {
    const array::BeamId tb = rng.uniform_int(0, cb.size() - 1);
    const array::BeamId rb = rng.uniform_int(0, cb.size() - 1);
    const double before = link.rx_power_dbm(tb, rb);
    box.add_blocker({{rng.uniform(3, 14), rng.uniform(1, 8)},
                     rng.uniform(0.1, 0.5), rng.uniform(5, 35)});
    const double after = link.rx_power_dbm(tb, rb);
    EXPECT_LE(after, before + 1e-9);
    box.clear_blockers();
  }
}

// --- phy: throughput is continuous-ish and bounded; CDR in [0,1] always.
TEST_P(SeededProperty, ErrorModelBounds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  for (int i = 0; i < 200; ++i) {
    const double snr = rng.uniform(-30, 60);
    const phy::McsIndex m = rng.uniform_int(0, table.max_mcs());
    const double cdr = em.expected_cdr(m, snr);
    EXPECT_GE(cdr, 0.0);
    EXPECT_LE(cdr, 1.0);
    const double tput = em.expected_throughput_mbps(m, snr);
    EXPECT_GE(tput, 0.0);
    EXPECT_LE(tput, table.rate_mbps(table.max_mcs()));
  }
}

// --- trace: ground-truth utilities are bounded and the BA label fraction
// weakly rises as the BA overhead drops (cheaper BA is never less
// attractive).
TEST_P(SeededProperty, GroundTruthMonotoneInBaOverhead) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  int ba_cheap = 0, ba_expensive = 0;
  for (int i = 0; i < 60; ++i) {
    const int init = rng.uniform_int(2, 8);
    const int after_ra = rng.uniform_int(-1, init);
    const int after_ba = rng.uniform_int(after_ra < 0 ? 0 : after_ra, init);
    const trace::CaseRecord rec =
        libra::testing::make_record(init, after_ra, after_ba);
    trace::GroundTruthConfig cheap;
    cheap.alpha = 0.5;
    cheap.ba_overhead_ms = 0.5;
    trace::GroundTruthConfig expensive = cheap;
    expensive.ba_overhead_ms = 250.0;
    const auto g1 = trace::label_case(rec, cheap);
    const auto g2 = trace::label_case(rec, expensive);
    for (const auto& g : {g1, g2}) {
      EXPECT_GE(g.utility_ra, -1e-9);
      EXPECT_LE(g.utility_ra, 1.0 + 1e-9);
      EXPECT_GE(g.utility_ba, -1e-9);
      EXPECT_LE(g.utility_ba, 1.0 + 1e-9);
    }
    ba_cheap += g1.label == trace::Action::kBA;
    ba_expensive += g2.label == trace::Action::kBA;
  }
  EXPECT_GE(ba_cheap, ba_expensive);
}

// --- ml: a forest's vote fractions always form a distribution, and its
// arg-max matches predict().
TEST_P(SeededProperty, ForestVotesAreDistribution) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 600);
  ml::DataSet d(3);
  for (int i = 0; i < 120; ++i) {
    const int y = rng.uniform_int(0, 2);
    d.add(std::vector<double>{y + rng.gaussian(0, 0.6), rng.gaussian(0, 1),
                              rng.gaussian(0, 1)},
          y);
  }
  ml::RandomForestConfig cfg;
  cfg.num_trees = 15;
  ml::RandomForest forest(cfg);
  forest.fit(d, rng);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x{rng.uniform(-1, 3), rng.gaussian(0, 1),
                                rng.gaussian(0, 1)};
    const auto votes = forest.vote_fractions(x);
    double sum = 0.0;
    std::size_t best = 0;
    for (std::size_t c = 0; c < votes.size(); ++c) {
      EXPECT_GE(votes[c], 0.0);
      sum += votes[c];
      if (votes[c] > votes[best]) best = c;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // predict() and arg-max agree up to tie-breaking order.
    EXPECT_GE(votes[(std::size_t)forest.predict(x)], votes[best] - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace libra
