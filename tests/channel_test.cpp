#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "channel/fading.h"
#include "channel/link.h"
#include "channel/link_budget.h"
#include "channel/path_tracer.h"
#include "env/registry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace libra::channel {
namespace {

env::Environment box() {
  return env::Environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
}

// ---------- link budget ----------

TEST(LinkBudget, FsplMatchesClosedForm) {
  // 68 dB at 1 m and 60 GHz is the textbook value.
  EXPECT_NEAR(fspl_db(1.0, 60e9), 68.0, 0.2);
  // +20 dB per decade of distance.
  EXPECT_NEAR(fspl_db(10.0, 60e9) - fspl_db(1.0, 60e9), 20.0, 1e-9);
}

TEST(LinkBudget, NearFieldGuard) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0, 60e9), fspl_db(0.1, 60e9));
}

TEST(LinkBudget, OxygenAbsorptionAccumulates) {
  const LinkBudgetConfig cfg;
  const double d1 = path_loss_db(cfg, 10.0);
  const double d2 = path_loss_db(cfg, 1000.0);
  // At 1 km the O2 term alone adds ~16 dB beyond FSPL scaling.
  const double fspl_delta = fspl_db(1000.0, cfg.frequency_hz) -
                            fspl_db(10.0, cfg.frequency_hz);
  EXPECT_NEAR(d2 - d1 - fspl_delta, cfg.oxygen_db_per_m * 990.0, 1e-9);
}

TEST(LinkBudget, ThermalNoiseFloor) {
  LinkBudgetConfig cfg;
  // -174 + 10log10(1.76e9) + 7 = -74.5 dBm.
  EXPECT_NEAR(thermal_noise_floor_dbm(cfg), -74.5, 0.2);
}

// ---------- path tracer ----------

TEST(PathTracer, FreeSpaceHasOnlyLos) {
  const env::Environment empty("empty", {});
  const PathTracer tracer;
  const auto paths = tracer.trace(empty, {0, 0}, {5, 0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].bounces, 0);
  EXPECT_DOUBLE_EQ(paths[0].length_m, 5.0);
  EXPECT_NEAR(paths[0].aod_deg, 0.0, 1e-9);
  EXPECT_NEAR(paths[0].aoa_deg, 180.0, 1e-9);
}

TEST(PathTracer, BoxYieldsLosAndReflections) {
  const env::Environment e = box();
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {2, 5}, {18, 5});
  int los = 0, first = 0, second = 0;
  for (const auto& p : paths) {
    if (p.bounces == 0) ++los;
    if (p.bounces == 1) ++first;
    if (p.bounces == 2) ++second;
  }
  EXPECT_EQ(los, 1);
  // Midline between parallel walls: ceiling + floor wall reflections exist.
  EXPECT_GE(first, 2);
  EXPECT_GE(second, 2);
}

TEST(PathTracer, ReflectionGeometryIsSpecular) {
  const env::Environment e = box();
  const PathTracer tracer(1);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  for (const auto& p : paths) {
    if (p.bounces != 1) continue;
    ASSERT_EQ(p.points.size(), 3u);
    // For the two horizontal walls the reflection point is equidistant in x
    // (symmetric Tx/Rx heights); end walls reflect at other points.
    const bool horizontal_wall =
        std::abs(p.points[1].y) < 1e-6 || std::abs(p.points[1].y - 10.0) < 1e-6;
    if (horizontal_wall) {
      EXPECT_NEAR(p.points[1].x, 10.0, 1e-6);
    }
    // Any reflected path is longer than the LOS.
    EXPECT_GT(p.length_m, 10.0);
  }
}

TEST(PathTracer, ReflectionLossComesFromWallMaterial) {
  auto walls = env::rectangle_walls(20, 10, 3, 99, 12, 99);
  const env::Environment e("mixed", std::move(walls));
  const PathTracer tracer(1);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  bool saw3 = false, saw12 = false;
  for (const auto& p : paths) {
    if (p.bounces != 1) continue;
    saw3 |= p.reflection_loss_db == 3.0;
    saw12 |= p.reflection_loss_db == 12.0;
  }
  EXPECT_TRUE(saw3);
  EXPECT_TRUE(saw12);
}

TEST(PathTracer, WallBlocksLos) {
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  walls.push_back({{{10, 0}, {10, 10}}, 5.0, "divider"});
  const env::Environment e("divided", std::move(walls));
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  for (const auto& p : paths) {
    EXPECT_NE(p.bounces, 0);  // no LOS through the divider
  }
}

TEST(PathTracer, MaxBouncesZero) {
  const env::Environment e = box();
  const PathTracer tracer(0);
  const auto paths = tracer.trace(e, {5, 5}, {15, 5});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].bounces, 0);
}

TEST(PathTracer, SecondOrderPathLengthExceedsFirstOrder) {
  const env::Environment e = box();
  const PathTracer tracer;
  const auto paths = tracer.trace(e, {2, 5}, {18, 5});
  double min2 = 1e18, min1 = 1e18;
  for (const auto& p : paths) {
    if (p.bounces == 1) min1 = std::min(min1, p.length_m);
    if (p.bounces == 2) min2 = std::min(min2, p.length_m);
  }
  EXPECT_GT(min2, min1);
}

// ---------- link ----------

struct LinkFixture : ::testing::Test {
  LinkFixture()
      : environment(box()),
        tx({2, 5}, 0.0, &codebook),
        rx({18, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx) {}

  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  Link link;
};

TEST_F(LinkFixture, AlignedBeamsGiveBestPower) {
  const double aligned = link.rx_power_dbm(12, 12);
  EXPECT_GT(aligned, link.rx_power_dbm(0, 12));
  EXPECT_GT(aligned, link.rx_power_dbm(12, 0));
  EXPECT_GT(aligned, link.rx_power_dbm(12, array::kQuasiOmni));
}

TEST_F(LinkFixture, PowerDecreasesWithDistance) {
  const double near = link.rx_power_dbm(12, 12);
  rx.set_position({10, 5});
  link.refresh();
  const double nearer = link.rx_power_dbm(12, 12);
  EXPECT_GT(nearer, near);
}

TEST_F(LinkFixture, SnrIsPowerMinusNoise) {
  EXPECT_NEAR(link.snr_db(12, 12),
              link.rx_power_dbm(12, 12) - link.noise_floor_dbm(12), 1e-9);
}

TEST_F(LinkFixture, BlockerReducesPowerWithoutRefresh) {
  const double before = link.rx_power_dbm(12, 12);
  environment.add_blocker({{10, 5}, 0.25, 28.0});
  const double after = link.rx_power_dbm(12, 12);
  EXPECT_LT(after, before - 10.0);  // LOS dominated, so most power is gone
}

TEST_F(LinkFixture, InterfererCouplingDependsOnRxBeam) {
  link.set_interferer(Interferer{{18, 1}, 30.0, 1.0});
  // The interferer sits below the Rx; a beam looking toward it couples more
  // than a beam looking away.
  const array::BeamId toward = codebook.nearest_beam(
      geom::wrap_angle_deg((geom::Vec2{18, 1} - rx.position()).angle_deg() -
                           rx.boresight_deg()));
  double max_power = -1e9, min_power = 1e9;
  for (array::BeamId b = 0; b < codebook.size(); ++b) {
    const double p = link.interference_power_dbm(b);
    max_power = std::max(max_power, p);
    min_power = std::min(min_power, p);
  }
  EXPECT_GT(max_power - min_power, 5.0);
  EXPECT_GT(link.interference_power_dbm(toward), min_power);
}

TEST_F(LinkFixture, CleanSnrIgnoresInterferer) {
  const double before = link.snr_clean_db(12, 12);
  link.set_interferer(Interferer{{10, 2}, 40.0, 0.5});
  EXPECT_NEAR(link.snr_clean_db(12, 12), before, 1e-9);
  EXPECT_LT(link.snr_db(12, 12), before);
}

TEST_F(LinkFixture, RemovingInterfererRestoresFloor) {
  const double base = link.noise_floor_dbm(12);
  link.set_interferer(Interferer{{10, 2}, 40.0, 1.0});
  EXPECT_GT(link.noise_floor_dbm(12), base);
  link.set_interferer(std::nullopt);
  EXPECT_NEAR(link.noise_floor_dbm(12), base, 1e-12);
}

TEST_F(LinkFixture, ContributionsDelaysMatchGeometry) {
  const auto paths = link.pair_channel(12, 12);
  ASSERT_FALSE(paths->contributions.empty());
  // The earliest arrival is the LOS at distance/c.
  double min_delay = 1e18;
  for (const auto& c : paths->contributions) {
    min_delay = std::min(min_delay, c.delay_ns);
  }
  EXPECT_NEAR(min_delay, 16.0 / 0.299792458, 0.01);
}

TEST_F(LinkFixture, NoPathsYieldsFloorPower) {
  // Fully separate the endpoints with a box around the Tx.
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  for (const auto& w : env::rectangle_walls(2, 2, 99, 99, 99, 99)) {
    walls.push_back({{{w.seg.a.x + 1, w.seg.a.y + 4},
                      {w.seg.b.x + 1, w.seg.b.y + 4}},
                     99.0, "cage"});
  }
  env::Environment caged("caged", std::move(walls));
  array::PhasedArray tx2({2, 5}, 0.0, &codebook);
  array::PhasedArray rx2({18, 5}, 180.0, &codebook);
  Link caged_link(&caged, &tx2, &rx2);
  // Tx sits inside the cage: no LOS, and the cage participates in
  // reflections but every LOS leg is cut.
  EXPECT_LT(caged_link.rx_power_dbm(12, 12), link.rx_power_dbm(12, 12));
}

// The sweep table's exact entries are the per-pair query evaluated with
// hoisted path terms and gain tables; they must not move a single bit. Its
// row and column bounds must cover every entry. A 5-beam Tx against the
// 25-beam Rx keeps the indexing honest.
TEST_F(LinkFixture, SweepTableMatchesPerPairQueriesAndBoundsThem) {
  const array::Codebook small_codebook(array::CodebookConfig{.num_beams = 5});
  array::PhasedArray small_tx({2, 5}, 0.0, &small_codebook);
  Link mixed(&environment, &small_tx, &rx);
  const auto expect_table_exact = [](const Link& l, const char* what) {
    const Link::SweepTable table(l);
    const int n_tx = l.tx().codebook().size();
    const int n_rx = l.rx().codebook().size();
    for (array::BeamId tb = 0; tb < n_tx; ++tb) {
      for (array::BeamId rb = 0; rb < n_rx; ++rb) {
        const double entry = table.rx_power_dbm(tb, rb);
        const double pair = l.rx_power_dbm(tb, rb);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(entry),
                  std::bit_cast<std::uint64_t>(pair))
            << what << " tb " << tb << " rb " << rb;
        ASSERT_GE(table.tx_bound_dbm(tb), entry)
            << what << " tb " << tb << " rb " << rb;
        ASSERT_GE(table.rx_bound_dbm(rb), entry)
            << what << " tb " << tb << " rb " << rb;
        // The memoized contributions sum to the same total.
        double total_mw = 0.0;
        for (const PathContribution& c :
             l.pair_channel(tb, rb)->contributions) {
          total_mw += util::dbm_to_mw(c.rx_power_dbm);
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(util::mw_to_dbm(total_mw) +
                                               l.fade_db()),
                  std::bit_cast<std::uint64_t>(pair))
            << what << " tb " << tb << " rb " << rb;
      }
    }
  };
  const auto check_both = [&](const char* what) {
    expect_table_exact(link, what);
    expect_table_exact(mixed, what);
  };
  check_both("clean");
  environment.add_blocker({{10, 5}, 0.25, 28.0});
  environment.add_blocker({{6, 8}, 0.4, 12.0});
  check_both("blocked");
  link.set_interferer(Interferer{{10, 2}, 40.0, 0.5});
  mixed.set_interferer(Interferer{{10, 2}, 40.0, 0.5});
  check_both("blocked + interferer");
  link.set_fade_db(-4.25);
  mixed.set_fade_db(3.5);
  check_both("blocked + interferer + fade");
  tx.set_boresight_deg(17.0);
  small_tx.set_boresight_deg(-23.0);
  rx.set_boresight_deg(151.0);
  link.refresh();
  mixed.refresh();
  check_both("blocked + interferer + fade + rotated");
}

TEST_F(LinkFixture, SweepTableOfNoPathLinkSitsOnTheFloor) {
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  for (const auto& w : env::rectangle_walls(2, 2, 99, 99, 99, 99)) {
    walls.push_back({{{w.seg.a.x + 1, w.seg.a.y + 4},
                      {w.seg.b.x + 1, w.seg.b.y + 4}},
                     99.0, "cage"});
  }
  env::Environment caged("caged", std::move(walls));
  array::PhasedArray tx2({2, 5}, 0.0, &codebook);
  array::PhasedArray rx2({18, 5}, 180.0, &codebook);
  Link caged_link(&caged, &tx2, &rx2);
  caged_link.set_fade_db(-6.0);  // the floor carries no fade
  const Link::SweepTable table(caged_link);
  for (array::BeamId b = 0; b < codebook.size(); ++b) {
    EXPECT_EQ(table.rx_power_dbm(b, codebook.size() - 1 - b), -200.0);
    EXPECT_EQ(table.tx_bound_dbm(b), -200.0);
    EXPECT_EQ(table.rx_bound_dbm(b), -200.0);
  }
}

TEST_F(LinkFixture, InterfererDutyMustBeAFraction) {
  for (const double bad : {-0.1, 1.5, std::nan("")}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(link.set_interferer(Interferer{{10, 2}, 40.0, bad}),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(link.set_interferer(Interferer{{10, 2}, 40.0, 0.0}));
  EXPECT_NO_THROW(link.set_interferer(Interferer{{10, 2}, 40.0, 1.0}));
}

TEST_F(LinkFixture, FadeOffsetsSignalNotNoise) {
  const double snr0 = link.snr_db(12, 12);
  const double floor0 = link.noise_floor_dbm(12);
  link.set_fade_db(-6.0);
  EXPECT_NEAR(link.snr_db(12, 12), snr0 - 6.0, 1e-9);
  EXPECT_NEAR(link.noise_floor_dbm(12), floor0, 1e-12);
  link.set_fade_db(0.0);
  EXPECT_NEAR(link.snr_db(12, 12), snr0, 1e-9);
}

TEST(Fading, StationaryStatistics) {
  FadingConfig cfg;
  cfg.sigma_db = 2.0;
  cfg.coherence_time_ms = 100.0;
  FadingProcess fading(cfg, 7);
  util::RunningStats stats;
  // Sample far apart relative to the coherence time for near-independence.
  for (int i = 0; i < 5000; ++i) stats.add(fading.advance(500.0));
  EXPECT_NEAR(stats.mean(), 0.0, 0.15);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.15);
}

TEST(Fading, TemporalCorrelation) {
  FadingConfig cfg;
  cfg.sigma_db = 2.0;
  cfg.coherence_time_ms = 1000.0;
  FadingProcess fading(cfg, 8);
  fading.advance(10000.0);  // burn in
  // Tiny steps: consecutive values stay close.
  double prev = fading.current_db();
  double max_step = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double cur = fading.advance(1.0);
    max_step = std::max(max_step, std::abs(cur - prev));
    prev = cur;
  }
  EXPECT_LT(max_step, 0.5);
}

TEST(Fading, ZeroCoherenceIsWhiteNoise) {
  FadingConfig cfg;
  cfg.sigma_db = 1.0;
  cfg.coherence_time_ms = 0.0;
  FadingProcess fading(cfg, 9);
  const double a = fading.advance(1.0);
  const double b = fading.advance(1.0);
  EXPECT_NE(a, b);
}

// FadingConfig is validated at construction, one field at a time: a NaN
// sigma would silently disable fading and a NaN or negative coherence time
// would silently make it white. Zero is valid for both.
void expect_fading_rejected(void (*set_field)(FadingConfig&, double),
                            const char* field) {
  for (const double bad : {-1.0, -1e-300, std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    FadingConfig cfg;
    set_field(cfg, bad);
    try {
      FadingProcess(cfg, 1);
      ADD_FAILURE() << field << " = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  FadingConfig zero;
  set_field(zero, 0.0);
  EXPECT_NO_THROW(FadingProcess(zero, 1)) << field;
}

TEST(Fading, SigmaMustBeFiniteAndNonNegative) {
  expect_fading_rejected([](FadingConfig& c, double v) { c.sigma_db = v; },
                         "sigma_db");
}

TEST(Fading, CoherenceTimeMustBeFiniteAndNonNegative) {
  expect_fading_rejected(
      [](FadingConfig& c, double v) { c.coherence_time_ms = v; },
      "coherence_time_ms");
}

// ---------- channel memo ----------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every query the memo serves must equal, bit for bit, a Link built fresh
// on the same environment and arrays (carrying the same interferer and
// fade): a stale memo entry shows up as a mismatch.
void expect_matches_fresh(const Link& memo, const env::Environment& env,
                          array::PhasedArray& tx, array::PhasedArray& rx,
                          array::BeamId tb, array::BeamId rb, int step) {
  Link fresh(&env, &tx, &rx, memo.budget());
  fresh.set_interferer(memo.interferer());
  fresh.set_fade_db(memo.fade_db());
  const auto got = memo.pair_channel(tb, rb);
  const auto want = fresh.pair_channel(tb, rb);
  ASSERT_EQ(got->contributions.size(), want->contributions.size())
      << "step " << step;
  ASSERT_EQ(got->rx_power_mw.size(), got->contributions.size())
      << "step " << step;
  for (std::size_t i = 0; i < got->contributions.size(); ++i) {
    const PathContribution& g = got->contributions[i];
    const PathContribution& w = want->contributions[i];
    ASSERT_EQ(bits(g.rx_power_dbm), bits(w.rx_power_dbm))
        << "step " << step << " path " << i;
    ASSERT_EQ(bits(got->rx_power_mw[i]),
              bits(util::dbm_to_mw(w.rx_power_dbm)))
        << "step " << step << " path " << i;
    ASSERT_EQ(bits(g.delay_ns), bits(w.delay_ns)) << "step " << step;
    ASSERT_EQ(bits(g.aod_deg), bits(w.aod_deg)) << "step " << step;
    ASSERT_EQ(bits(g.aoa_deg), bits(w.aoa_deg)) << "step " << step;
    ASSERT_EQ(g.bounces, w.bounces) << "step " << step;
  }
  ASSERT_EQ(bits(memo.rx_power_dbm(tb, rb)), bits(fresh.rx_power_dbm(tb, rb)))
      << "step " << step;
  ASSERT_EQ(bits(memo.snr_db(tb, rb)), bits(fresh.snr_db(tb, rb)))
      << "step " << step;
  ASSERT_EQ(bits(memo.snr_clean_db(tb, rb)),
            bits(fresh.snr_clean_db(tb, rb)))
      << "step " << step;
  ASSERT_EQ(bits(memo.noise_floor_dbm(rb)), bits(fresh.noise_floor_dbm(rb)))
      << "step " << step;
}

// Random mutation sequences against the memo: beam switches on either end,
// Tx/Rx rotations, an Rx move plus refresh(), blocker sets (changed and
// unchanged) and clears, interferer set/clear and fade changes. Each
// kind changes one key input at a time, so a key that left out that input
// would serve a stale entry here.
TEST(ChannelMemo, MatchesFreshLinkUnderRandomMutations) {
  array::Codebook codebook;
  const int n_beams = codebook.size();
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    env::Environment env = box();
    array::PhasedArray tx({2, 5}, 0.0, &codebook);
    array::PhasedArray rx({18, 5}, 180.0, &codebook);
    Link link(&env, &tx, &rx);
    util::Rng rng(seed);
    array::BeamId tb = 12;
    array::BeamId rb = 12;
    const auto random_blocker = [&] {
      return env::Blocker{{rng.uniform(3.0, 17.0), rng.uniform(3.0, 7.0)},
                          rng.uniform(0.2, 1.5), rng.uniform(5.0, 30.0)};
    };
    const auto random_beam = [&] {
      // The Rx end sometimes listens quasi-omni.
      return static_cast<array::BeamId>(rng.uniform_int(-1, n_beams - 1));
    };
    // The first vector handed out must never change under the caller.
    const auto first = link.pair_channel(tb, rb);
    const std::vector<PathContribution> first_copy = first->contributions;
    for (int step = 0; step < 300; ++step) {
      switch (rng.uniform_int(0, 9)) {
        case 0:
          tb = static_cast<array::BeamId>(rng.uniform_int(0, n_beams - 1));
          break;
        case 1:
          rb = random_beam();
          break;
        case 2:
          tx.set_boresight_deg(rng.uniform(-180.0, 180.0));
          break;
        case 3:
          rx.set_boresight_deg(rng.uniform(-180.0, 180.0));
          break;
        case 4:
          rx.set_position({rng.uniform(8.0, 19.0), rng.uniform(1.0, 9.0)});
          link.refresh();
          break;
        case 5: {
          std::vector<env::Blocker> blockers(
              static_cast<std::size_t>(rng.uniform_int(1, 2)));
          for (env::Blocker& b : blockers) b = random_blocker();
          env.set_blockers(blockers);
          break;
        }
        case 6: {
          // The same list again, or one blocker more.
          std::vector<env::Blocker> blockers = env.blockers();
          if (rng.bernoulli(0.5)) blockers.push_back(random_blocker());
          env.set_blockers(blockers);
          break;
        }
        case 7:
          env.clear_blockers();
          break;
        case 8:
          if (rng.bernoulli(0.3)) {
            link.set_interferer(std::nullopt);
          } else {
            link.set_interferer(Interferer{
                {rng.uniform(1.0, 19.0), rng.uniform(1.0, 9.0)},
                rng.uniform(20.0, 50.0), rng.uniform(0.1, 1.0)});
          }
          break;
        default:
          link.set_fade_db(rng.uniform(-8.0, 4.0));
          break;
      }
      expect_matches_fresh(link, env, tx, rx, tb, rb, step);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(first->contributions.size(), first_copy.size());
    for (std::size_t i = 0; i < first_copy.size(); ++i) {
      EXPECT_EQ(bits(first->contributions[i].rx_power_dbm),
                bits(first_copy[i].rx_power_dbm));
    }
  }
}

// The memo is hit while nothing in its key changes: the sampler's, the
// controller's and the up-probe's queries of one frame share one vector,
// and re-asserting the same blockers (as SessionDriver does every frame)
// keeps it; fading is applied per query.
TEST_F(LinkFixture, UnchangedLinkSharesOneContributionsVector) {
  environment.add_blocker({{10, 5}, 0.25, 28.0});
  const auto a = link.pair_channel(12, 12);
  EXPECT_EQ(link.pair_channel(12, 12).get(), a.get());
  (void)link.snr_db(12, 12);
  link.set_fade_db(-3.0);
  environment.set_blockers(std::vector<env::Blocker>(environment.blockers()));
  EXPECT_EQ(link.pair_channel(12, 12).get(), a.get());
  environment.set_blockers({});
  EXPECT_NE(link.pair_channel(12, 12).get(), a.get());
}

// LinkBudgetConfig is validated at construction, one field at a time.
TEST(Link, DefaultBudgetConstructs) {
  array::Codebook cb;
  env::Environment e = box();
  array::PhasedArray a({2, 5}, 0, &cb);
  array::PhasedArray b({18, 5}, 180, &cb);
  EXPECT_NO_THROW(Link(&e, &a, &b, LinkBudgetConfig{}));
}

struct BadBudget {
  const char* field;
  void (*poison)(LinkBudgetConfig&);
};

TEST(Link, InvalidBudgetFieldsThrow) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const BadBudget cases[] = {
      {"tx_power_dbm", [](LinkBudgetConfig& c) { c.tx_power_dbm = kNan; }},
      {"tx_power_dbm", [](LinkBudgetConfig& c) { c.tx_power_dbm = kInf; }},
      {"frequency_hz", [](LinkBudgetConfig& c) { c.frequency_hz = 0.0; }},
      {"frequency_hz", [](LinkBudgetConfig& c) { c.frequency_hz = -60e9; }},
      {"frequency_hz", [](LinkBudgetConfig& c) { c.frequency_hz = kInf; }},
      {"bandwidth_hz", [](LinkBudgetConfig& c) { c.bandwidth_hz = 0.0; }},
      {"bandwidth_hz", [](LinkBudgetConfig& c) { c.bandwidth_hz = kNan; }},
      {"noise_figure_db",
       [](LinkBudgetConfig& c) { c.noise_figure_db = kNan; }},
      {"oxygen_db_per_m",
       [](LinkBudgetConfig& c) { c.oxygen_db_per_m = -0.016; }},
      {"oxygen_db_per_m",
       [](LinkBudgetConfig& c) { c.oxygen_db_per_m = kInf; }},
      {"implementation_loss_db",
       [](LinkBudgetConfig& c) { c.implementation_loss_db = -kInf; }},
  };
  array::Codebook cb;
  env::Environment e = box();
  array::PhasedArray a({2, 5}, 0, &cb);
  array::PhasedArray b({18, 5}, 180, &cb);
  for (const BadBudget& bad : cases) {
    LinkBudgetConfig cfg;
    bad.poison(cfg);
    try {
      Link link(&e, &a, &b, cfg);
      ADD_FAILURE() << bad.field << ": no exception";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(bad.field), std::string::npos)
          << ex.what();
    }
  }
}

TEST(Link, NullDependenciesThrow) {
  array::Codebook cb;
  env::Environment e = box();
  array::PhasedArray a({0, 0}, 0, &cb);
  EXPECT_THROW(Link(nullptr, &a, &a), std::invalid_argument);
  EXPECT_THROW(Link(&e, nullptr, &a), std::invalid_argument);
  EXPECT_THROW(Link(&e, &a, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace libra::channel
