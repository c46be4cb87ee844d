#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "env/registry.h"
#include "mac/ack.h"
#include "mac/beacon_interval.h"
#include "mac/csma.h"
#include "mac/beam_training.h"
#include "mac/timing.h"
#include "obs/metrics.h"
#include "phy/sampler.h"

namespace libra::mac {
namespace {

// ---------- timing ----------

TEST(Timing, WorstCaseDelayFormula) {
  // Dmax = N*FAT + dBA + N*FAT (Sec. 5.2).
  EXPECT_DOUBLE_EQ(worst_case_delay_ms(9, 10.0, 5.0), 185.0);
  EXPECT_DOUBLE_EQ(worst_case_delay_ms(9, 2.0, 250.0), 286.0);
}

TEST(Timing, AlphaFollowsBaOverhead) {
  // Sec. 8.1: alpha = 0.7 for cheap BA, 0.5 for expensive BA.
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(0.5), 0.7);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(5.0), 0.7);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(150.0), 0.5);
  EXPECT_DOUBLE_EQ(alpha_for_ba_overhead(250.0), 0.5);
}

TEST(Timing, PaperParameterGrids) {
  EXPECT_EQ(std::size(kBaOverheadsMs), 4u);
  EXPECT_EQ(std::size(kFatsMs), 2u);
}

// ---------- beacon-interval / SSW timing ----------

TEST(BeaconInterval, SectorsForBeamwidth) {
  EXPECT_EQ(sectors_for_beamwidth(360.0, 30.0), 12);
  EXPECT_EQ(sectors_for_beamwidth(360.0, 7.0), 52);  // ceil(51.4)
  EXPECT_EQ(sectors_for_beamwidth(120.0, 5.0), 24);
  EXPECT_THROW(sectors_for_beamwidth(360.0, 0.0), std::invalid_argument);
}

TEST(BeaconInterval, FullSlsCoversBothSides) {
  // Sec. 8.1 anchor: 30-degree beams (12 sectors over 360) land near the
  // paper's 0.5 ms; 3-degree beams near 5 ms.
  EXPECT_NEAR(full_sls_duration_ms(12, 12), 0.5, 0.15);
  EXPECT_NEAR(full_sls_duration_ms(120, 120), 5.0, 1.2);
}

TEST(BeaconInterval, AbftContention) {
  EXPECT_DOUBLE_EQ(expected_abft_intervals(1), 1.0);
  // More contenders => more expected beacon intervals, monotonically.
  double prev = 1.0;
  for (int n = 2; n <= 16; ++n) {
    const double e = expected_abft_intervals(n);
    EXPECT_GT(e, prev);
    prev = e;
  }
  EXPECT_THROW(expected_abft_intervals(0), std::invalid_argument);
}

// ---------- ACK model ----------

TEST(AckModel, HighSnrAlwaysAcks) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  EXPECT_NEAR(ack.ack_probability(0, 30.0), 1.0, 1e-9);
}

TEST(AckModel, DeepFadeLosesAck) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  EXPECT_LT(ack.ack_probability(8, 0.0), 0.01);
}

TEST(AckModel, LostOnlyWhenEverySubframeFails) {
  const phy::McsTable t;
  const phy::ErrorModel em(&t);
  const AckModel ack(&em);
  const double snr = t.entry(4).snr_threshold_db - 1.0;
  const double p = em.codeword_success_prob(4, snr);
  EXPECT_DOUBLE_EQ(ack.ack_probability(4, snr),
                   1.0 - std::pow(1.0 - p, kAckSubframes));
  EXPECT_GT(ack.ack_probability(4, snr), p);  // sturdier than one subframe
}

TEST(AckModel, NullErrorModelThrows) {
  EXPECT_THROW(AckModel(nullptr), std::invalid_argument);
}

// ---------- CSMA / hidden terminal ----------

TEST(Csma, UnthrottledDutyScalesWithLoad) {
  EXPECT_DOUBLE_EQ(unthrottled_duty(0.0), 0.0);
  EXPECT_GT(unthrottled_duty(1.0), 0.95);  // airtime dominates contention
  EXPECT_NEAR(unthrottled_duty(0.5), 0.5 * unthrottled_duty(1.0), 1e-12);
  EXPECT_THROW(unthrottled_duty(1.5), std::invalid_argument);
}

TEST(Csma, DirectionalDeafnessCreatesHiddenTerminal) {
  // Victim Tx and an interferer in a box; the interferer listens quasi-omni.
  phy::McsTable table;
  phy::ErrorModel em(&table);
  env::Environment box("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
  array::Codebook codebook;
  array::PhasedArray victim_tx({2, 5}, 0.0, &codebook);
  array::PhasedArray interferer({18, 5}, 180.0, &codebook);
  channel::Link towards(&box, &victim_tx, &interferer);
  // The victim beams straight at the interferer: easily sensed.
  EXPECT_TRUE(can_sense(towards, 12, array::kQuasiOmni));
  // The victim beams 60 degrees away: only side lobes reach the
  // interferer and sensing fails -> hidden terminal.
  EXPECT_FALSE(can_sense(towards, 0, array::kQuasiOmni));
}

TEST(Csma, DutyCoversTheDatasetLevels) {
  // The three calibrated interference levels (20/50/80% throughput drop)
  // correspond to offered loads ~0.2/0.5/0.8 of a deaf interferer.
  for (double load : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(unthrottled_duty(load), load, 0.03);
  }
}

// ---------- beam training ----------

struct TrainerFixture : ::testing::Test {
  TrainerFixture()
      : em(&table),
        environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8)),
        tx({2, 5}, 0.0, &codebook),
        rx({18, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx),
        sampler(&em, low_noise()) {}

  static phy::SamplerConfig low_noise() {
    phy::SamplerConfig cfg;
    cfg.snr_jitter_db = 0.01;  // near-noiseless probes for determinism
    return cfg;
  }

  phy::McsTable table;
  phy::ErrorModel em;
  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
  phy::PhySampler sampler;
};

TEST_F(TrainerFixture, ExhaustiveFindsAlignedPair) {
  const BeamTrainer trainer;
  util::Rng rng(1);
  const SweepResult r = trainer.exhaustive(link, sampler, rng);
  // The Tx looks straight at the Rx (beam 12 steers 0 degrees) and vice
  // versa; allow one beam of slack for side-lobe quirks.
  EXPECT_NEAR(r.tx_beam, 12, 1);
  EXPECT_NEAR(r.rx_beam, 12, 1);
  EXPECT_EQ(r.measurements, 625);
  EXPECT_NEAR(r.snr_db, link.snr_db(r.tx_beam, r.rx_beam), 0.5);
}

TEST_F(TrainerFixture, SlsMeasuresTwoSweeps) {
  const BeamTrainer trainer;
  util::Rng rng(2);
  const SweepResult r = trainer.sls_80211ad(link, sampler, rng);
  EXPECT_EQ(r.measurements, 50);
  EXPECT_NEAR(r.tx_beam, 12, 1);
  EXPECT_NEAR(r.rx_beam, 12, 1);
}

TEST_F(TrainerFixture, TxOnlySweepUsesQuasiOmni) {
  const BeamTrainer trainer;
  util::Rng rng(3);
  const SweepResult r = trainer.sls_tx_only(link, sampler, rng);
  EXPECT_EQ(r.measurements, 25);
  EXPECT_EQ(r.rx_beam, array::kQuasiOmni);
  EXPECT_NEAR(r.tx_beam, 12, 1);
}

TEST_F(TrainerFixture, SweepDurationsScaleWithProbes) {
  const BeamTrainer trainer;
  util::Rng rng(4);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto sls = trainer.sls_80211ad(link, sampler, rng);
  const auto tx_only = trainer.sls_tx_only(link, sampler, rng);
  static_assert(kProbeUs == 20.0);
  EXPECT_DOUBLE_EQ(exhaustive.duration_ms, 625 * 0.02);
  EXPECT_DOUBLE_EQ(sls.duration_ms, 50 * 0.02);
  EXPECT_DOUBLE_EQ(tx_only.duration_ms, 25 * 0.02);
  // The complexity ordering of Sec. 2: O(N^2) >> O(N) > O(N)/2.
  EXPECT_GT(exhaustive.duration_ms, sls.duration_ms);
  EXPECT_GT(sls.duration_ms, tx_only.duration_ms);
}

TEST_F(TrainerFixture, ExhaustiveAtLeastAsGoodAsSls) {
  const BeamTrainer trainer;
  util::Rng rng(5);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto sls = trainer.sls_80211ad(link, sampler, rng);
  EXPECT_GE(link.snr_db(exhaustive.tx_beam, exhaustive.rx_beam) + 0.2,
            link.snr_db(sls.tx_beam, sls.rx_beam));
}

TEST_F(TrainerFixture, CoarseFineNearExhaustiveQuality) {
  const BeamTrainer trainer;
  util::Rng rng(7);
  const auto exhaustive = trainer.exhaustive(link, sampler, rng);
  const auto cf = trainer.coarse_fine(link, sampler, rng);
  // 12x fewer probes, within a fraction of a dB of the optimum.
  EXPECT_LE(cf.measurements, 55);
  EXPECT_GE(link.snr_db(cf.tx_beam, cf.rx_beam) + 0.8,
            link.snr_db(exhaustive.tx_beam, exhaustive.rx_beam));
}

TEST_F(TrainerFixture, CoarseFineProbeBudget) {
  const BeamTrainer trainer;
  util::Rng rng(8);
  // stride 5 -> 5x5 coarse; radius 2 -> up to 5x5 refine minus the center.
  const auto r = trainer.coarse_fine(link, sampler, rng, 5, 2);
  EXPECT_EQ(r.measurements, 25 + 24);
  // A wider stride shrinks the coarse level.
  const auto wide = trainer.coarse_fine(link, sampler, rng, 12, 1);
  EXPECT_LT(wide.measurements, r.measurements);
}

TEST_F(TrainerFixture, SweepTracksRotatedRx) {
  // Rotate the Rx by 45 degrees: the best Rx beam moves off center.
  rx.set_boresight_deg(135.0);
  link.refresh();
  const BeamTrainer trainer;
  util::Rng rng(6);
  const SweepResult r = trainer.exhaustive(link, sampler, rng);
  // The Tx->Rx arrival is at world 180; array frame 180-135=45 -> beam 21.
  EXPECT_NEAR(r.rx_beam, 21, 1);
}

TEST_F(TrainerFixture, CoarseFineRejectsBadGridBeforeProbing) {
  const BeamTrainer trainer;
  util::Rng rng(9);
  util::Rng untouched(9);
  // stride 0 would never advance the coarse loop; a negative stride walks
  // off forever; a negative radius would silently skip the refinement.
  EXPECT_THROW(trainer.coarse_fine(link, sampler, rng, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(trainer.coarse_fine(link, sampler, rng, -5, 2),
               std::invalid_argument);
  EXPECT_THROW(trainer.coarse_fine(link, sampler, rng, 5, -1),
               std::invalid_argument);
  EXPECT_TRUE(rng.engine() == untouched.engine());  // no probe was drawn
  EXPECT_EQ(trainer.coarse_fine(link, sampler, rng, 1, 0).measurements, 625);
}

// The sweep as specified: one measure_snr_db() per probed pair, tb-major,
// strict >, over the Tx beams at least `min_tx_gap` from `primary_tx`. The
// bound-pruned exhaustive() must equal it bit for bit, Rng state included.
SweepResult reference_sweep(const channel::Link& link,
                            const phy::PhySampler& sampler, util::Rng& rng,
                            array::BeamId primary_tx = 0, int min_tx_gap = 0) {
  SweepResult best;
  best.snr_db = -1e9;
  for (array::BeamId tb = 0; tb < link.tx().codebook().size(); ++tb) {
    if (std::abs(tb - primary_tx) < min_tx_gap) continue;
    for (array::BeamId rb = 0; rb < link.rx().codebook().size(); ++rb) {
      const double snr = sampler.measure_snr_db(link, tb, rb, rng);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms =
      static_cast<double>(best.measurements) * kProbeUs / 1000.0;
  return best;
}

std::uint64_t exact_pairs_counted() {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* c = snap.find_counter("mac.sweep.exact_pairs");
  return c ? c->value : 0;
}

// Runs the pruned sweep and the reference from the same seed and compares
// every SweepResult field and the Rng state. Returns the pruned sweep's
// exact evaluations.
std::uint64_t expect_sweeps_identical(const channel::Link& link,
                                      const phy::PhySampler& sampler,
                                      std::uint64_t seed,
                                      array::BeamId primary_tx = 0,
                                      int min_tx_gap = 0) {
  const BeamTrainer trainer;
  util::Rng rng(seed);
  util::Rng oracle_rng(seed);
  const std::uint64_t exact_before = exact_pairs_counted();
  const SweepResult got =
      min_tx_gap == 0
          ? trainer.exhaustive(link, sampler, rng)
          : trainer.exhaustive_apart_from(link, sampler, rng, primary_tx,
                                          min_tx_gap);
  const std::uint64_t exact = exact_pairs_counted() - exact_before;
  const SweepResult want = reference_sweep(
      link, sampler, oracle_rng, primary_tx, min_tx_gap);
  EXPECT_EQ(got.tx_beam, want.tx_beam);
  EXPECT_EQ(got.rx_beam, want.rx_beam);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.snr_db),
            std::bit_cast<std::uint64_t>(want.snr_db));
  EXPECT_EQ(got.measurements, want.measurements);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.duration_ms),
            std::bit_cast<std::uint64_t>(want.duration_ms));
  EXPECT_TRUE(rng.engine() == oracle_rng.engine());
  return exact;
}

TEST_F(TrainerFixture, ExhaustiveMatchesPerPairOracle) {
  // The default per-probe jitter, so the argmax genuinely depends on the
  // draws.
  const phy::PhySampler noisy(&em);
  const array::Codebook five(array::CodebookConfig{.num_beams = 5});
  array::PhasedArray tx5({2, 5}, 0.0, &five);
  array::PhasedArray rx5({18, 5}, 180.0, &five);
  channel::Link link5(&environment, &tx5, &rx5);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(seed);
    expect_sweeps_identical(link, noisy, seed);
    expect_sweeps_identical(link5, noisy, seed);
    expect_sweeps_identical(link, sampler, seed);
  }
  // Blocked LOS, a bursty interferer (so every Rx beam has its own floor),
  // a fade and rotated arrays.
  environment.add_blocker({{10, 5}, 0.3, 20.0});
  link.set_interferer(channel::Interferer{{12, 1}, 45.0, 0.4});
  link5.set_interferer(channel::Interferer{{12, 1}, 45.0, 0.4});
  link.set_fade_db(-3.0);
  rx.set_boresight_deg(150.0);
  rx5.set_boresight_deg(200.0);
  link.refresh();
  link5.refresh();
  for (const std::uint64_t seed : {4ULL, 5ULL}) {
    SCOPED_TRACE(seed);
    expect_sweeps_identical(link, noisy, seed);
    expect_sweeps_identical(link5, noisy, seed);
  }
}

// A jitter far below one ULP of the SNR leaves every probe at its mean, so
// pairs with equal channels tie exactly and only the first-max rule picks
// among them.
phy::SamplerConfig tie_config() {
  phy::SamplerConfig cfg;
  cfg.snr_jitter_db = 1e-300;
  return cfg;
}

TEST(SweepEquivalence, PrunedSweepMatchesBruteForceOnRandomLinks) {
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler noisy(&em);
  const phy::PhySampler tied(&em, tie_config());
  const array::Codebook one(array::CodebookConfig{.num_beams = 1});
  const array::Codebook five(array::CodebookConfig{.num_beams = 5});
  const array::Codebook full;
  const std::pair<const array::Codebook*, const array::Codebook*> shapes[] = {
      {&one, &one}, {&five, &full}, {&full, &five}, {&full, &full}};
  util::Rng draw(2024);
  std::uint64_t exact = 0;
  std::uint64_t probes = 0;
  for (int trial = 0; trial < 36; ++trial) {
    SCOPED_TRACE(trial);
    env::Environment room = trial % 3 == 0   ? env::make_conference_room()
                            : trial % 3 == 1 ? env::make_lab()
                                             : env::make_lobby();
    const auto box = room.bounding_box();
    const auto inside = [&] {
      return room.clamp_inside({draw.uniform(box.min.x, box.max.x),
                                draw.uniform(box.min.y, box.max.y)},
                               0.5);
    };
    const auto [tx_cb, rx_cb] = shapes[trial % 4];
    array::PhasedArray tx(inside(), draw.uniform(-180.0, 180.0), tx_cb);
    array::PhasedArray rx(inside(), draw.uniform(-180.0, 180.0), rx_cb);
    channel::Link link(&room, &tx, &rx);
    // Static blockers: one near the LOS, sometimes a second anywhere.
    if (trial % 2 == 0) {
      room.add_blocker({tx.position() + (rx.position() - tx.position()) *
                                            draw.uniform(0.3, 0.7),
                        0.3, draw.uniform(15.0, 35.0)});
    }
    if (trial % 5 == 0) room.add_blocker({inside(), 0.4, 20.0});
    switch (trial % 3) {
      case 1:
        link.set_interferer(channel::Interferer{inside(), 45.0, 0.3});
        break;
      case 2:
        link.set_interferer(channel::Interferer{inside(), 50.0, 1.0});
        break;
      default:
        break;
    }
    link.set_fade_db(trial % 7 == 1 ? 0.0 : draw.uniform(-9.0, 4.0));
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(trial);
    exact += expect_sweeps_identical(link, noisy, seed);
    probes += static_cast<std::uint64_t>(tx_cb->size() * rx_cb->size());
    expect_sweeps_identical(link, tied, seed);
    // The failover search: a Tx-beam gap around a random primary.
    const auto primary =
        static_cast<array::BeamId>(draw.uniform_int(0, tx_cb->size() - 1));
    const int gap = draw.uniform_int(1, 4);
    expect_sweeps_identical(link, noisy, seed, primary, gap);
    expect_sweeps_identical(link, tied, seed, primary, gap);
  }
  // The point of the bound: far fewer exact evaluations than probes.
  if (obs::enabled()) {
    EXPECT_LT(exact * 4, probes);
  }
}

TEST(SweepEquivalence, NoPathLinkTiesOnTheFloor) {
  // The Tx sits in a closed cage: no path reaches the Rx, every pair reads
  // the no-signal floor, and with tied probes the first pair must win.
  auto walls = env::rectangle_walls(20, 10, 8, 8, 8, 8);
  for (const auto& w : env::rectangle_walls(2, 2, 99, 99, 99, 99)) {
    walls.push_back({{{w.seg.a.x + 1, w.seg.a.y + 4},
                      {w.seg.b.x + 1, w.seg.b.y + 4}},
                     99.0, "cage"});
  }
  env::Environment caged("caged", std::move(walls));
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler noisy(&em);
  const phy::PhySampler tied(&em, tie_config());
  const array::Codebook codebook;
  array::PhasedArray tx({2, 5}, 0.0, &codebook);
  array::PhasedArray rx({18, 5}, 180.0, &codebook);
  channel::Link link(&caged, &tx, &rx);
  ASSERT_TRUE(link.paths().empty());
  for (const double fade : {0.0, -7.5}) {
    link.set_fade_db(fade);
    expect_sweeps_identical(link, noisy, 11);
    expect_sweeps_identical(link, tied, 12);
    expect_sweeps_identical(link, tied, 13, 12, 3);
    util::Rng rng(14);
    const SweepResult r = BeamTrainer().exhaustive(link, tied, rng);
    EXPECT_EQ(r.tx_beam, 0);
    EXPECT_EQ(r.rx_beam, 0);
  }
  link.set_interferer(channel::Interferer{{12, 1}, 45.0, 0.5});
  expect_sweeps_identical(link, noisy, 15);
  expect_sweeps_identical(link, tied, 16);
}

TEST(SweepEquivalence, PairsWhosePowerUnderflowsStayReachable) {
  // One LOS path, attenuated so deep that its mW power is subnormal through
  // the best beams and rounds to zero through the worst. A zero sum reads
  // the no-signal floor (-200 dBm, no fade), which beats a faded subnormal
  // sum; the bounds must not fall below that floor.
  env::Environment room("open", {});
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler noisy(&em);
  const array::Codebook codebook;
  array::PhasedArray tx({0, 0}, 0.0, &codebook);
  array::PhasedArray rx({5, 0}, 180.0, &codebook);
  channel::Link link(&room, &tx, &rx);
  double best_dbm = -1e9;
  for (array::BeamId tb = 0; tb < codebook.size(); ++tb) {
    for (array::BeamId rb = 0; rb < codebook.size(); ++rb) {
      best_dbm = std::max(best_dbm, link.rx_power_dbm(tb, rb));
    }
  }
  room.add_blocker({{2.5, 0}, 0.3, best_dbm + 3200.0});
  link.set_fade_db(-100.0);
  int zero = 0;
  int subnormal = 0;
  for (array::BeamId tb = 0; tb < codebook.size(); ++tb) {
    for (array::BeamId rb = 0; rb < codebook.size(); ++rb) {
      const double p = link.rx_power_dbm(tb, rb);
      zero += p == -200.0;
      subnormal += p < -3000.0;
    }
  }
  ASSERT_GT(zero, 0);
  ASSERT_GT(subnormal, 0);
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    expect_sweeps_identical(link, noisy, seed);
  }
}

TEST(SweepEquivalence, FailoverWithNoSweptBeamProbesNothing) {
  const phy::McsTable table;
  const phy::ErrorModel em(&table);
  const phy::PhySampler sampler(&em);
  const array::Codebook five(array::CodebookConfig{.num_beams = 5});
  env::Environment room("box", env::rectangle_walls(20, 10, 8, 8, 8, 8));
  array::PhasedArray tx({2, 5}, 0.0, &five);
  array::PhasedArray rx({18, 5}, 180.0, &five);
  channel::Link link(&room, &tx, &rx);
  util::Rng rng(3);
  util::Rng untouched(3);
  const SweepResult r =
      BeamTrainer().exhaustive_apart_from(link, sampler, rng, 2, 10);
  EXPECT_EQ(r.measurements, 0);
  EXPECT_EQ(r.rx_beam, array::kQuasiOmni);
  EXPECT_TRUE(rng.engine() == untouched.engine());
}

}  // namespace
}  // namespace libra::mac
