#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "channel/link.h"
#include "env/registry.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "phy/pdp.h"
#include "phy/sampler.h"
#include "util/units.h"

namespace libra::phy {
namespace {

// ---------- MCS table ----------

TEST(McsTable, DefaultHasNineEntries) {
  const McsTable t;
  EXPECT_EQ(t.size(), 9);
  EXPECT_DOUBLE_EQ(t.rate_mbps(0), 300.0);
  EXPECT_DOUBLE_EQ(t.rate_mbps(t.max_mcs()), 4750.0);
}

TEST(McsTable, RatesAndThresholdsMonotonic) {
  const McsTable t;
  for (int m = 1; m < t.size(); ++m) {
    EXPECT_GT(t.rate_mbps(m), t.rate_mbps(m - 1));
    EXPECT_GT(t.entry(m).snr_threshold_db, t.entry(m - 1).snr_threshold_db);
  }
}

TEST(McsTable, HighestSupported) {
  const McsTable t;
  EXPECT_EQ(t.highest_supported(-10.0), -1);
  EXPECT_EQ(t.highest_supported(3.0), 0);
  EXPECT_EQ(t.highest_supported(100.0), 8);
  EXPECT_EQ(t.highest_supported(t.entry(4).snr_threshold_db), 4);
}

TEST(McsTable, OutOfRangeThrows) {
  const McsTable t;
  EXPECT_THROW(t.entry(-1), std::out_of_range);
  EXPECT_THROW(t.entry(9), std::out_of_range);
}

TEST(McsTable, CodewordSizesInX60Range) {
  const McsTable t;
  for (McsIndex m = 0; m < t.size(); ++m) {
    EXPECT_GE(t.entry(m).codeword_bytes, 180);
    EXPECT_LE(t.entry(m).codeword_bytes, 1080);
  }
}

// ---------- error model ----------

TEST(ErrorModel, HalfSuccessAtThreshold) {
  const McsTable t;
  const ErrorModel em(&t);
  for (int m = 0; m < t.size(); ++m) {
    EXPECT_NEAR(em.codeword_success_prob(m, t.entry(m).snr_threshold_db), 0.5,
                1e-9);
  }
}

TEST(ErrorModel, NinetyPercentAtOneWidthAbove) {
  const McsTable t;
  const ErrorModel em(&t);
  EXPECT_NEAR(em.codeword_success_prob(
                  0, t.entry(0).snr_threshold_db + kWaterfallWidthDb),
              0.9, 1e-6);
}

TEST(ErrorModel, MonotonicInSnr) {
  const McsTable t;
  const ErrorModel em(&t);
  double prev = 0.0;
  for (double snr = -10.0; snr < 40.0; snr += 0.5) {
    const double p = em.codeword_success_prob(4, snr);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ErrorModel, ThroughputCapsAtFramingEfficiency) {
  const McsTable t;
  const ErrorModel em(&t);
  const double tput = em.expected_throughput_mbps(8, 100.0);
  EXPECT_NEAR(tput, 4750.0 * kFramingEfficiency, 1e-6);
}

TEST(ErrorModel, LowerMcsWinsBelowThreshold) {
  const McsTable t;
  const ErrorModel em(&t);
  // 1 dB below MCS 5's threshold, MCS 4 out-delivers MCS 5.
  const double snr = t.entry(5).snr_threshold_db - 1.0;
  EXPECT_GT(em.expected_throughput_mbps(4, snr),
            em.expected_throughput_mbps(5, snr));
}

TEST(ErrorModel, NullTableThrows) {
  EXPECT_THROW(ErrorModel(nullptr), std::invalid_argument);
}

class McsSweep : public ::testing::TestWithParam<int> {};

TEST_P(McsSweep, ThroughputUnimodalOverLadder) {
  // At any SNR, expected throughput as a function of MCS rises then falls:
  // there is a single best MCS (what RA searches for).
  const McsTable t;
  const ErrorModel em(&t);
  const double snr = 2.0 + GetParam() * 3.0;
  int direction_changes = 0;
  double prev = em.expected_throughput_mbps(0, snr);
  bool rising = true;
  for (int m = 1; m < t.size(); ++m) {
    const double cur = em.expected_throughput_mbps(m, snr);
    if (rising && cur < prev) {
      rising = false;
      ++direction_changes;
    } else if (!rising && cur > prev + 1e-9) {
      ++direction_changes;
    }
    prev = cur;
  }
  EXPECT_LE(direction_changes, 1);
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, McsSweep, ::testing::Range(0, 10));

// ---------- PDP ----------

TEST(Pdp, TapsAtPathDelays) {
  std::vector<channel::PathContribution> contributions = {
      {-50.0, 20.0, 0, 0, 0},
      {-60.0, 45.0, 0, 0, 1},
  };
  PdpConfig cfg;
  const auto pdp = synthesize_pdp(contributions, cfg);
  ASSERT_EQ(static_cast<int>(pdp.size()), kNumTaps);
  EXPECT_NEAR(pdp[20], util::dbm_to_mw(-50.0), util::dbm_to_mw(-50.0) * 0.01);
  EXPECT_NEAR(pdp[45], util::dbm_to_mw(-60.0), util::dbm_to_mw(-60.0) * 0.01);
  EXPECT_NEAR(pdp[100], cfg.noise_floor_mw, cfg.noise_floor_mw * 0.01);
}

TEST(Pdp, OutOfWindowPathsDropped) {
  std::vector<channel::PathContribution> contributions = {
      {-50.0, 1e6, 0, 0, 0},  // 1 ms delay: far outside the window
  };
  const auto pdp = synthesize_pdp(contributions, {});
  for (double tap : pdp) EXPECT_LE(tap, 2e-12);
}

TEST(Pdp, CoincidentPathsAddPower) {
  std::vector<channel::PathContribution> contributions = {
      {-50.0, 20.0, 0, 0, 0},
      {-50.0, 20.2, 0, 0, 1},  // same tap after rounding
  };
  const auto pdp = synthesize_pdp(contributions, {});
  EXPECT_NEAR(pdp[20], 2.0 * util::dbm_to_mw(-50.0),
              util::dbm_to_mw(-50.0) * 0.02);
}

TEST(Pdp, TofIsStrongestTap) {
  std::vector<channel::PathContribution> contributions = {
      {-55.0, 30.0, 0, 0, 0},
      {-45.0, 60.0, 0, 0, 1},  // stronger, later
  };
  const auto pdp = synthesize_pdp(contributions, {});
  const auto tof = tof_at_peak_ns(pdp, strongest_tap(pdp), {});
  ASSERT_TRUE(tof.has_value());
  EXPECT_DOUBLE_EQ(*tof, 60.0);
}

TEST(Pdp, TofInfinityWhenNoSignal) {
  PdpConfig cfg;
  cfg.noise_floor_mw = 1e-9;
  std::vector<channel::PathContribution> weak = {{-95.0, 30.0, 0, 0, 0}};
  const auto pdp = synthesize_pdp(weak, cfg);
  EXPECT_FALSE(tof_at_peak_ns(pdp, strongest_tap(pdp), cfg).has_value());
}

// The free PDP functions validate their config.
void expect_pdp_rejected(void (*set_field)(PdpConfig&), const char* field) {
  PdpConfig cfg;
  set_field(cfg);
  const std::vector<channel::PathContribution> paths{
      {-60.0, 10.0, 0.0, 0.0, 0}};
  const auto names_field = [field](const std::invalid_argument& e) {
    return std::string(e.what()).find(field) != std::string::npos;
  };
  try {
    synthesize_pdp(paths, cfg);
    ADD_FAILURE() << "synthesize_pdp accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(names_field(e)) << e.what();
  }
}

TEST(Pdp, NonPositiveNoiseFloorThrows) {
  expect_pdp_rejected([](PdpConfig& c) { c.noise_floor_mw = 0.0; },
                      "noise_floor_mw");
  expect_pdp_rejected([](PdpConfig& c) { c.noise_floor_mw = std::nan(""); },
                      "noise_floor_mw");
  expect_pdp_rejected(
      [](PdpConfig& c) {
        c.noise_floor_mw = std::numeric_limits<double>::infinity();
      },
      "noise_floor_mw");
}

TEST(Pdp, CsiHasHalfSpectrumSize) {
  std::vector<double> pdp(256, 1e-12);
  pdp[10] = 1e-6;
  const auto csi = csi_from_pdp(pdp);
  EXPECT_EQ(csi.size(), 128u);
}

// ---------- sampler ----------

struct SamplerFixture : ::testing::Test {
  SamplerFixture()
      : em(&table),
        environment("box", env::rectangle_walls(20, 10, 8, 8, 8, 8)),
        tx({2, 5}, 0.0, &codebook),
        rx({12, 5}, 180.0, &codebook),
        link(&environment, &tx, &rx),
        sampler(&em) {}

  McsTable table;
  ErrorModel em;
  array::Codebook codebook;
  env::Environment environment;
  array::PhasedArray tx;
  array::PhasedArray rx;
  channel::Link link;
  PhySampler sampler;
};

TEST_F(SamplerFixture, ObservationNearTruth) {
  util::Rng rng(1);
  const auto obs = sampler.observe(link, 12, 12, 4, rng);
  EXPECT_NEAR(obs.snr_db, link.snr_db(12, 12), 2.0);
  EXPECT_NEAR(obs.noise_dbm, link.noise_floor_dbm(12), 6.0);
  EXPECT_TRUE(obs.tof_ns.has_value());
  EXPECT_EQ(obs.mcs, 4);
  EXPECT_GE(obs.cdr, 0.0);
  EXPECT_LE(obs.cdr, 1.0);
}

TEST_F(SamplerFixture, ThroughputConsistentWithCdr) {
  util::Rng rng(1);
  const auto obs = sampler.observe(link, 12, 12, 3, rng);
  EXPECT_NEAR(obs.throughput_mbps,
              table.rate_mbps(3) * obs.cdr * kFramingEfficiency,
              1e-9);
}

TEST_F(SamplerFixture, DeterministicUnderSameSeed) {
  util::Rng rng1(5), rng2(5);
  const auto a = sampler.observe(link, 12, 12, 4, rng1);
  const auto b = sampler.observe(link, 12, 12, 4, rng2);
  EXPECT_DOUBLE_EQ(a.snr_db, b.snr_db);
  EXPECT_DOUBLE_EQ(a.cdr, b.cdr);
  EXPECT_EQ(a.pdp, b.pdp);
}

TEST_F(SamplerFixture, TofMatchesLosDistance) {
  util::Rng rng(2);
  const auto obs = sampler.observe(link, 12, 12, 0, rng);
  ASSERT_TRUE(obs.tof_ns.has_value());
  EXPECT_NEAR(*obs.tof_ns, 10.0 / 0.299792458, 1.5);
}

TEST_F(SamplerFixture, MisalignedBeamsLoseTof) {
  util::Rng rng(2);
  // Rx beam pointing backwards: backlobe-only reception, SNR below the
  // detection floor -> ToF reported as infinity (nullopt).
  rx.set_boresight_deg(0.0);  // boresight away from Tx
  link.refresh();
  const auto obs = sampler.observe(link, 12, 24, 0, rng);
  EXPECT_FALSE(obs.tof_ns.has_value());
}

TEST_F(SamplerFixture, BurstyInterferenceMixesCdr) {
  util::Rng rng(3);
  const auto clean = sampler.observe(link, 12, 12, 4, rng);
  ASSERT_GT(clean.cdr, 0.95);
  // Jamming interferer with 40% duty: expected CDR ~ 0.6 * clean.
  link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.4});
  util::Rng rng2(3);
  const auto jammed = sampler.observe(link, 12, 12, 4, rng2);
  EXPECT_NEAR(jammed.cdr, 0.6 * clean.cdr, 0.08);
}

TEST_F(SamplerFixture, SweepSnrAveragesDuty) {
  util::Rng rng(4);
  const double clean = link.snr_clean_db(12, 12);
  link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.5});
  const double jam = link.snr_db(12, 12);
  const double measured = sampler.measure_snr_db(link, 12, 12, rng);
  EXPECT_NEAR(measured, 0.5 * clean + 0.5 * jam, 2.0);
}

void expect_same_bits(const PhyObservation& got, const PhyObservation& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto same = [&](const std::vector<double>& a,
                        const std::vector<double>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](double x, double y) { return bits(x) == bits(y); });
  };
  EXPECT_EQ(bits(got.snr_db), bits(want.snr_db));
  EXPECT_EQ(bits(got.noise_dbm), bits(want.noise_dbm));
  ASSERT_EQ(got.tof_ns.has_value(), want.tof_ns.has_value());
  if (want.tof_ns) {
    EXPECT_EQ(bits(*got.tof_ns), bits(*want.tof_ns));
  }
  EXPECT_TRUE(same(got.pdp, want.pdp));
  EXPECT_TRUE(same(got.csi, want.csi));
  EXPECT_EQ(bits(got.cdr), bits(want.cdr));
  EXPECT_EQ(bits(got.throughput_mbps), bits(want.throughput_mbps));
  EXPECT_EQ(got.mcs, want.mcs);
  EXPECT_FALSE(got.deferred());
}

// observe_rate() is observe() without the PDP/CSI: the same scalar fields,
// bit for bit, and the same Rng draws, so a caller can swap one for the
// other without moving any later draw. observe_deferred() leaves the stream
// where both do, and materializes to observe() bit for bit.
TEST_F(SamplerFixture, RateObservationMatchesFullObservation) {
  struct Case {
    const char* name;
    array::BeamId tx_beam;
    array::BeamId rx_beam;
    std::function<void()> setup;
  };
  const Case cases[] = {
      {"clean", 12, 12, [] {}},
      {"blocked", 12, 12,
       [&] { environment.add_blocker({{7, 5}, 0.3, 25.0}); }},
      {"jammed", 12, 12,
       [&] { link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.4}); }},
      {"faded", 12, 12, [&] { link.set_fade_db(-7.5); }},
      {"quasi_omni", 12, array::kQuasiOmni, [] {}},
  };
  for (const Case& c : cases) {
    environment.clear_blockers();
    link.set_interferer(std::nullopt);
    link.set_fade_db(0.0);
    c.setup();
    for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
      util::Rng full_rng(seed);
      util::Rng rate_rng(seed);
      util::Rng deferred_rng(seed);
      for (McsIndex mcs = 0; mcs < table.size(); ++mcs) {
        const PhyObservation full =
            sampler.observe(link, c.tx_beam, c.rx_beam, mcs, full_rng);
        const PhyObservation rate =
            sampler.observe_rate(link, c.tx_beam, c.rx_beam, mcs, rate_rng);
        PhyObservation deferred = sampler.observe_deferred(
            link, c.tx_beam, c.rx_beam, mcs, deferred_rng);
        SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed) +
                     " mcs " + std::to_string(mcs));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rate.snr_db),
                  std::bit_cast<std::uint64_t>(full.snr_db));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rate.noise_dbm),
                  std::bit_cast<std::uint64_t>(full.noise_dbm));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rate.cdr),
                  std::bit_cast<std::uint64_t>(full.cdr));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rate.throughput_mbps),
                  std::bit_cast<std::uint64_t>(full.throughput_mbps));
        EXPECT_EQ(rate.mcs, full.mcs);
        EXPECT_TRUE(rate_rng.engine() == full_rng.engine());
        EXPECT_TRUE(deferred_rng.engine() == full_rng.engine());
        deferred.materialize();
        expect_same_bits(deferred, full);
        EXPECT_TRUE(rate.pdp.empty());
        EXPECT_TRUE(rate.csi.empty());
        EXPECT_FALSE(rate.tof_ns.has_value());
        EXPECT_EQ(full.pdp.size(), static_cast<std::size_t>(kNumTaps));
      }
    }
  }
}

// observe_deferred() draws exactly what observe() draws, and materializing
// it -- now, later, from a copy, or twice -- gives observe()'s observation
// bit for bit on every field.
TEST_F(SamplerFixture, DeferredObservationMaterializesToObserve) {
  struct Case {
    const char* name;
    array::BeamId rx_beam;
    std::function<void()> setup;
  };
  const Case cases[] = {
      {"clean", 12, [] {}},
      // Rx boresight turned away: backlobe only, ToF = infinity.
      {"misaligned", 24, [&] { rx.set_boresight_deg(0.0); }},
      {"jammed", 12,
       [&] { link.set_interferer(channel::Interferer{{12, 1}, 60.0, 0.4}); }},
      {"faded", 12, [&] { link.set_fade_db(-7.5); }},
  };
  for (const Case& c : cases) {
    rx.set_boresight_deg(180.0);
    link.set_interferer(std::nullopt);
    link.set_fade_db(0.0);
    c.setup();
    link.refresh();  // re-trace after a boresight change
    for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
      util::Rng eager_rng(seed);
      util::Rng deferred_rng(seed);
      util::Rng rate_rng(seed);
      for (McsIndex mcs = 0; mcs < table.size(); ++mcs) {
        SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed) +
                     " mcs " + std::to_string(mcs));
        const PhyObservation eager =
            sampler.observe(link, 12, c.rx_beam, mcs, eager_rng);
        PhyObservation deferred =
            sampler.observe_deferred(link, 12, c.rx_beam, mcs, deferred_rng);
        sampler.observe_rate(link, 12, c.rx_beam, mcs, rate_rng);
        ASSERT_TRUE(deferred.deferred());
        EXPECT_TRUE(deferred.pdp.empty());
        EXPECT_TRUE(deferred.csi.empty());
        EXPECT_FALSE(deferred.tof_ns.has_value());
        EXPECT_TRUE(deferred_rng.engine() == eager_rng.engine());
        EXPECT_TRUE(rate_rng.engine() == eager_rng.engine());
        if (c.name == std::string("clean")) {
          EXPECT_TRUE(eager.tof_ns.has_value());
        }
        if (c.name == std::string("misaligned")) {
          EXPECT_FALSE(eager.tof_ns.has_value());
        }
        // Later draws from the caller's stream do not reach the handle.
        for (int i = 0; i < 3; ++i) {
          eager_rng.gaussian(0.0, 1.0);
          deferred_rng.gaussian(0.0, 1.0);
          rate_rng.gaussian(0.0, 1.0);
        }
        PhyObservation copy = deferred;
        deferred.materialize();
        expect_same_bits(deferred, eager);
        deferred.materialize();
        expect_same_bits(deferred, eager);
        copy.materialize();
        expect_same_bits(copy, eager);
      }
    }
  }
}

// The tap jitters are keyed by one word of the caller's stream, drawn
// between the noise jitter and the CDR jitter; consecutive observations
// therefore get different keys and different PDPs.
TEST_F(SamplerFixture, TapKeyIsOneWordOfTheCallersStream) {
  util::Rng rng(5);
  util::Rng reference(5);
  std::uint64_t previous_key = 0;
  std::vector<double> previous_pdp;
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("observation " + std::to_string(i));
    PhyObservation obs = sampler.observe_deferred(link, 12, 12, 4, rng);
    ASSERT_TRUE(obs.deferred());
    reference.gaussian(0.0, 1.0);  // SNR jitter
    reference.gaussian(0.0, 1.0);  // noise jitter
    const std::uint64_t key = obs.pending->tap_key;
    EXPECT_EQ(key, reference.word());
    reference.gaussian(0.0, 1.0);  // CDR jitter
    EXPECT_TRUE(rng.engine() == reference.engine());
    obs.materialize();
    if (i > 0) {
      EXPECT_NE(key, previous_key);
      EXPECT_NE(obs.pdp, previous_pdp);
    }
    previous_key = key;
    previous_pdp = obs.pdp;
  }
}

TEST(Sampler, NullErrorModelThrows) {
  EXPECT_THROW(PhySampler(nullptr), std::invalid_argument);
}

// SamplerConfig is validated at construction, one field at a time: a zero
// or negative jitter is not a distribution, and a non-positive tap count,
// spacing or floor is not a PDP.
struct SamplerConfigValidation : ::testing::Test {
  // Every bad value of one double field must be rejected.
  void expect_rejected(
      const std::function<void(SamplerConfig&, double)>& set_field) {
    for (const double bad : {0.0, -1.0, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
      SamplerConfig cfg;
      set_field(cfg, bad);
      EXPECT_THROW(PhySampler(&em, cfg), std::invalid_argument) << bad;
    }
  }
  McsTable table;
  ErrorModel em{&table};
};

TEST_F(SamplerConfigValidation, DefaultConfigIsValid) {
  EXPECT_NO_THROW(PhySampler(&em, SamplerConfig{}));
}

TEST_F(SamplerConfigValidation, SnrJitterMustBePositive) {
  expect_rejected([](SamplerConfig& c, double v) { c.snr_jitter_db = v; });
}

TEST_F(SamplerConfigValidation, NoiseJitterMustBePositive) {
  expect_rejected([](SamplerConfig& c, double v) { c.noise_jitter_db = v; });
}

TEST_F(SamplerConfigValidation, PdpTapJitterMustBePositive) {
  expect_rejected([](SamplerConfig& c, double v) { c.pdp_tap_jitter = v; });
}

TEST_F(SamplerConfigValidation, CdrJitterMustBePositive) {
  expect_rejected([](SamplerConfig& c, double v) { c.cdr_jitter = v; });
}

}  // namespace
}  // namespace libra::phy
