// Generated equivalence tests for the one-pass PDP kernel
// (docs/architecture.md, "PDP kernel: one pass, same bits").
//
// The kernel replaced three implementations; each is kept here verbatim as
// an oracle:
//   - the complex-FFT magnitude_spectrum (complex buffer, in-place
//     bit reversal, interleaved butterflies, sqrt(re^2 + im^2)),
//   - fill_pdp (synthesize_pdp with a pow per path, the tap normals in a
//     fresh vector, the ToF from a std::max_element scan, csi_from_pdp),
//   - the std::max_element scans behind aligned_pdp_similarity.
// Every comparison is bit for bit, on generated PDP-shaped inputs and on
// zeros, subnormals, infinities, NaN, tied maxima and all-equal taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "array/codebook.h"
#include "array/phased_array.h"
#include "channel/link.h"
#include "core/controller.h"
#include "env/registry.h"
#include "faults/faults.h"
#include "obs/metrics.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "phy/pdp.h"
#include "phy/sampler.h"
#include "trace/features.h"
#include "util/fft.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace libra {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------- oracles: the implementations the kernel replaced ----------

void oracle_fft(std::vector<std::complex<double>>& data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  std::vector<std::complex<double>> tw;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) * -1;
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    const std::size_t base = tw.size();
    tw.push_back({1.0, 0.0});
    for (std::size_t k = 1; k < len / 2; ++k) {
      tw.push_back(tw[base + k - 1] * wlen);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double>* d = data.data() + i;
      const std::complex<double>* w = tw.data() + (half - 1);
      for (std::size_t k = 0; k < half; ++k) {
        const double ur = d[k].real();
        const double ui = d[k].imag();
        const double vr = d[k + half].real();
        const double vi = d[k + half].imag();
        const double wr = w[k].real();
        const double wi = w[k].imag();
        const double pr = vr * wr - vi * wi;
        const double pi = vr * wi + vi * wr;
        d[k] = {ur + pr, ui + pi};
        d[k + half] = {ur - pr, ui - pi};
      }
    }
  }
}

std::vector<double> oracle_magnitude_spectrum(const std::vector<double>& s) {
  if (s.empty()) return {};
  const std::size_t n = util::next_pow2(s.size());
  std::vector<std::complex<double>> buf(n);
  for (std::size_t i = 0; i < s.size(); ++i) buf[i] = s[i];
  oracle_fft(buf);
  std::vector<double> mag(n / 2);
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const double re = buf[i].real();
    const double im = buf[i].imag();
    mag[i] = std::sqrt(re * re + im * im);
  }
  return mag;
}

std::size_t oracle_peak(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                  v.begin());
}

std::optional<double> oracle_tof(const std::vector<double>& pdp,
                                 const phy::PdpConfig& cfg) {
  if (pdp.empty()) return std::nullopt;
  const auto it = std::max_element(pdp.begin(), pdp.end());
  if (*it < cfg.noise_floor_mw * 10.0) return std::nullopt;
  return static_cast<double>(it - pdp.begin()) * phy::kTapSpacingNs;
}

struct OraclePdp {
  std::vector<double> pdp;
  std::vector<double> csi;
  std::optional<double> tof_ns;
};

OraclePdp oracle_fill_pdp(
    const std::vector<channel::PathContribution>& contributions,
    const phy::PdpConfig& cfg, double tap_jitter, std::uint64_t tap_key) {
  OraclePdp out;
  out.pdp.assign(static_cast<std::size_t>(phy::kNumTaps), cfg.noise_floor_mw);
  for (const auto& c : contributions) {
    const int tap =
        static_cast<int>(std::round(c.delay_ns / phy::kTapSpacingNs));
    if (tap < 0 || tap >= phy::kNumTaps) continue;
    out.pdp[static_cast<std::size_t>(tap)] +=
        util::dbm_to_mw(c.rx_power_dbm);
  }
  std::vector<double> jitter(out.pdp.size());
  util::fill_standard_normals(tap_key, jitter);
  for (std::size_t i = 0; i < out.pdp.size(); ++i) {
    out.pdp[i] *= std::exp(jitter[i] * tap_jitter);
  }
  out.tof_ns = oracle_tof(out.pdp, cfg);
  out.csi = oracle_magnitude_spectrum(out.pdp);
  return out;
}

double oracle_aligned_similarity(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t peak_a = oracle_peak(a);
  const std::size_t peak_b = oracle_peak(b);
  const std::size_t len = std::min(a.size() - peak_a, b.size() - peak_b);
  if (len < 2) return 0.0;
  return util::pearson(std::span(a).subspan(peak_a, len),
                       std::span(b).subspan(peak_b, len));
}

// features_against_baseline's formulas over the oracle scans.
trace::FeatureVector oracle_features(const phy::PhyObservation& base,
                                     const phy::PhyObservation& obs,
                                     phy::McsIndex mcs) {
  trace::FeatureVector f;
  f.v[0] = base.snr_db - obs.snr_db;
  f.v[1] = base.tof_ns && obs.tof_ns ? *base.tof_ns - *obs.tof_ns
                                     : trace::kTofInfinity;
  f.v[2] = obs.noise_dbm - base.noise_dbm;
  f.v[3] = oracle_aligned_similarity(base.pdp, obs.pdp);
  f.v[4] = util::pearson(base.csi, obs.csi);
  f.v[5] = obs.cdr;
  f.v[6] = static_cast<double>(mcs);
  return f;
}

// A deferred observation materialized by the oracle from its own handle.
phy::PhyObservation oracle_materialize(const phy::PhyObservation& deferred) {
  phy::PhyObservation out = deferred;
  const phy::PendingPdp& p = *deferred.pending;
  OraclePdp o = oracle_fill_pdp(p.channel->contributions, p.pdp, p.tap_jitter,
                                p.tap_key);
  out.pdp = std::move(o.pdp);
  out.csi = std::move(o.csi);
  out.tof_ns = o.tof_ns;
  out.pending.reset();
  return out;
}

// ---------- comparisons ----------

// Bit equality. With `exact_nan` false, a NaN output only has to be NaN in
// both: IEEE 754 leaves open which payload an operation with two NaN
// operands returns, and the compiler may commute + and *, so where two
// different NaNs meet (a NaN tap next to an infinite one, or NaNs of two
// payloads) neither kernel defines which payload survives.
::testing::AssertionResult same_values(const std::vector<double>& got,
                                       const std::vector<double>& want,
                                       bool exact_nan = true) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) == bits(want[i])) continue;
    if (!exact_nan && std::isnan(got[i]) && std::isnan(want[i])) continue;
    return ::testing::AssertionFailure()
           << "element " << i << ": " << std::hexfloat << got[i] << " != "
           << want[i];
  }
  return ::testing::AssertionSuccess();
}

// A PDP as the sampler builds one: a jittered floor plus a few paths.
std::vector<double> pdp_shaped(util::Rng& rng, std::size_t n) {
  std::vector<double> pdp(n);
  const double floor_mw = std::pow(10.0, rng.uniform(-13.0, -9.0));
  for (double& tap : pdp) tap = floor_mw * std::exp(rng.gaussian(0.0, 0.08));
  const int paths = rng.uniform_int(0, 12);
  for (int p = 0; p < paths; ++p) {
    const auto tap = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1));
    pdp[tap] += std::pow(10.0, rng.uniform(-10.0, -3.0));
  }
  return pdp;
}

std::vector<std::size_t> spectrum_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 1024; n <<= 1) sizes.push_back(n);
  for (const std::size_t n : {3u, 5u, 7u, 100u, 129u, 255u, 257u, 300u,
                              513u, 1000u}) {
    sizes.push_back(n);
  }
  return sizes;
}

// ---------- the spectrum ----------

TEST(PdpKernelEquivalence, SpectrumMatchesComplexFftOnEverySize) {
  util::Rng rng(23);
  std::vector<double> into;
  for (const std::size_t n : spectrum_sizes()) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                   std::to_string(trial));
      const std::vector<double> pdp = pdp_shaped(rng, n);
      const std::vector<double> want = oracle_magnitude_spectrum(pdp);
      EXPECT_TRUE(same_values(util::magnitude_spectrum(pdp), want));
      // The out-parameter form reuses whatever the vector held before.
      util::magnitude_spectrum(pdp, into);
      EXPECT_TRUE(same_values(into, want));
    }
  }
  util::magnitude_spectrum({}, into);
  EXPECT_TRUE(into.empty());
}

TEST(PdpKernelEquivalence, SpectrumMatchesOnSpecialValues) {
  const double kMinSub = std::numeric_limits<double>::denorm_min();
  const double kMinNorm = std::numeric_limits<double>::min();
  struct Case {
    const char* name;
    std::vector<std::pair<std::size_t, double>> taps;  // planted values
    double fill;
    bool exact_nan;
  };
  const std::vector<Case> cases = {
      {"zeros", {}, 0.0, true},
      {"negative zeros", {}, -0.0, true},
      {"all equal", {}, 1e-9, true},
      {"tied maxima", {{3, 1e-4}, {17, 1e-4}, {40, 1e-4}}, 1e-12, true},
      {"subnormal floor", {{5, kMinSub}, {9, 3 * kMinSub}}, kMinSub, true},
      {"subnormal and normal", {{2, kMinNorm}, {30, 1e-300}}, kMinSub, true},
      {"huge", {{1, 1e300}, {60, -1e300}}, 1e-9, true},
      {"+inf", {{7, kInf}}, 1e-9, true},
      {"-inf", {{0, -kInf}}, 1e-9, true},
      {"+inf and -inf", {{4, kInf}, {11, -kInf}}, 1e-9, true},
      {"NaN", {{13, kNan}}, 1e-9, true},
      {"-NaN", {{0, -kNan}}, 1e-9, true},
      {"NaN everywhere", {}, kNan, true},
      {"NaN and +inf", {{3, kNan}, {8, kInf}}, 1e-9, false},
      {"NaN and -NaN", {{3, kNan}, {8, -kNan}}, 1e-9, false},
  };
  for (const std::size_t n : spectrum_sizes()) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " n " + std::to_string(n));
      std::vector<double> signal(n, c.fill);
      for (const auto& [tap, value] : c.taps) signal[tap % n] = value;
      EXPECT_TRUE(same_values(util::magnitude_spectrum(signal),
                              oracle_magnitude_spectrum(signal),
                              c.exact_nan));
    }
  }
}

// ---------- the first-maximum scan ----------

TEST(PdpKernelEquivalence, StrongestTapIsMaxElement) {
  util::Rng rng(31);
  const double specials[] = {0.0, -0.0, kInf, -kInf, kNan, 1e-12, 1e-3};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<double> v(n);
    // Few distinct values, so ties are common.
    const int kinds = rng.uniform_int(1, 4);
    for (double& x : v) {
      const int pick = rng.uniform_int(0, kinds - 1);
      x = rng.bernoulli(0.1) ? specials[rng.uniform_int(0, 6)]
                             : 1e-9 * static_cast<double>(pick);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(phy::strongest_tap(v), oracle_peak(v));
    const phy::PdpConfig cfg;
    const std::optional<double> got =
        phy::tof_at_peak_ns(v, phy::strongest_tap(v), cfg);
    const std::optional<double> want = oracle_tof(v, cfg);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
      EXPECT_EQ(bits(*got), bits(*want));
    }
    const std::vector<double> w = pdp_shaped(rng, n);
    EXPECT_EQ(bits(trace::aligned_pdp_similarity(v, w)),
              bits(oracle_aligned_similarity(v, w)));
  }
  EXPECT_EQ(phy::strongest_tap(std::vector<double>{}), 0u);
  EXPECT_EQ(phy::strongest_tap(std::vector<double>{kNan, 1.0, 2.0}), 0u);
  EXPECT_EQ(phy::strongest_tap(std::vector<double>{1.0, kNan, 2.0}), 2u);
  EXPECT_EQ(phy::strongest_tap(std::vector<double>{5.0, 5.0, 5.0}), 0u);
}

// ---------- materialize and the feature path ----------

// A lobby link with a codebook, a sampler and a controller whose baseline
// and feature seam the tests drive directly.
class FeatureProbe : public core::LinkController {
 public:
  using core::LinkController::LinkController;
  void set_baseline(phy::PhyObservation obs) { rebaseline(std::move(obs)); }
  trace::FeatureVector features(const phy::PhyObservation& obs) const {
    return features_against_baseline(obs);
  }

 protected:
  void plan(core::DecisionRequest&) override {}
};

struct KernelWorld {
  phy::McsTable table;
  phy::ErrorModel em{&table};
  env::Environment environment = env::make_lobby();
  array::Codebook codebook;
  array::PhasedArray tx{{2, 6}, 0.0, &codebook};
  array::PhasedArray rx{{10, 6}, 180.0, &codebook};
  channel::Link link{&environment, &tx, &rx};
  FeatureProbe probe{&link, &em};
  phy::PhySampler sampler{&em};
  // A random beam pair, sometimes with a blocker, an interferer, a fade or
  // a turned receiver.
  std::pair<array::BeamId, array::BeamId> perturb(util::Rng& rng) {
    environment.clear_blockers();
    if (rng.bernoulli(0.3)) {
      environment.add_blocker({{rng.uniform(4, 8), rng.uniform(5, 7)}, 0.3,
                               rng.uniform(5, 30)});
    }
    link.set_interferer(rng.bernoulli(0.2)
                            ? std::optional<channel::Interferer>(
                                  channel::Interferer{{8, 2}, 40.0, 0.5})
                            : std::nullopt);
    link.set_fade_db(rng.bernoulli(0.3) ? rng.uniform(-10, 3) : 0.0);
    rx.set_boresight_deg(rng.bernoulli(0.2) ? rng.uniform(0, 360) : 180.0);
    link.refresh();
    const int beams = codebook.size();
    return {rng.uniform_int(0, beams - 1),
            rng.bernoulli(0.1) ? array::kQuasiOmni
                               : rng.uniform_int(0, beams - 1)};
  }
};

void expect_matches_oracle(const phy::PhyObservation& got,
                           const phy::PhyObservation& want) {
  EXPECT_FALSE(got.deferred());
  EXPECT_TRUE(same_values(got.pdp, want.pdp));
  EXPECT_TRUE(same_values(got.csi, want.csi));
  ASSERT_EQ(got.tof_ns.has_value(), want.tof_ns.has_value());
  if (want.tof_ns) {
    EXPECT_EQ(bits(*got.tof_ns), bits(*want.tof_ns));
  }
  EXPECT_EQ(got.peak_tap(), oracle_peak(want.pdp));
}

TEST(PdpKernelEquivalence, MaterializeMatchesFillPdp) {
  KernelWorld w;
  util::Rng world_rng(41);
  util::Rng rng(256);
  util::Rng eager_rng(256);
  for (int trial = 0; trial < 280; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto [tb, rb] = w.perturb(world_rng);
    const phy::McsIndex mcs = trial % w.table.size();
    phy::PhyObservation obs =
        w.sampler.observe_deferred(w.link, tb, rb, mcs, rng);
    ASSERT_TRUE(obs.deferred());
    const phy::PhyObservation want = oracle_materialize(obs);
    obs.materialize();
    expect_matches_oracle(obs, want);
    // observe() is observe_deferred() then materialize().
    expect_matches_oracle(w.sampler.observe(w.link, tb, rb, mcs, eager_rng),
                          want);
    EXPECT_TRUE(eager_rng.engine() == rng.engine());
  }
}

// features_against_baseline reads the stored peaks; after a fault mutator
// rewrites or shortens a PDP it must read the mutated PDP's first maximum,
// exactly as the oracle's max_element scans do.
TEST(PdpKernelEquivalence, FeaturesMatchOracleAfterFaults) {
  KernelWorld w;
  const phy::PhySampler& sampler = w.sampler;
  util::Rng world_rng(43);
  util::Rng rng(44);
  enum class Fault { kNone, kCorrupt, kTruncate };
  int finite_pdp_features = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto [tb, rb] = w.perturb(world_rng);
    const phy::PhyObservation base =
        sampler.observe_deferred(w.link, tb, rb, 4, rng);
    const phy::PhyObservation base_oracle = oracle_materialize(base);
    const auto [tb2, rb2] =
        world_rng.bernoulli(0.5) ? std::pair{tb, rb} : w.perturb(world_rng);
    const phy::PhyObservation fresh =
        sampler.observe_deferred(w.link, tb2, rb2, 4, rng);
    for (const Fault fault :
         {Fault::kNone, Fault::kCorrupt, Fault::kTruncate}) {
      for (const double keep : {0.0, 0.05, 0.3, 0.77, 1.0}) {
        if (fault != Fault::kTruncate && keep != 1.0) continue;
        SCOPED_TRACE("trial " + std::to_string(trial) + " fault " +
                     std::to_string(static_cast<int>(fault)) + " keep " +
                     std::to_string(keep));
        // The baseline is materialized by the feature read itself.
        w.probe.set_baseline(base);
        phy::PhyObservation obs = fresh;
        obs.materialize();
        phy::PhyObservation want = oracle_materialize(fresh);
        if (fault == Fault::kCorrupt) {
          faults::corrupt_observation(obs);
          faults::corrupt_observation(want);
        } else if (fault == Fault::kTruncate) {
          faults::truncate_observation(obs, keep);
          faults::truncate_observation(want, keep);
        }
        EXPECT_EQ(obs.peak_tap(), oracle_peak(want.pdp));
        const trace::FeatureVector got = w.probe.features(obs);
        const trace::FeatureVector exp =
            oracle_features(base_oracle, want, w.probe.mcs());
        for (std::size_t i = 0; i < exp.v.size(); ++i) {
          EXPECT_TRUE(bits(got.v[i]) == bits(exp.v[i]) ||
                      (std::isnan(got.v[i]) && std::isnan(exp.v[i])))
              << "feature " << i << ": " << got.v[i] << " vs " << exp.v[i];
        }
        if (std::isfinite(exp.v[3])) ++finite_pdp_features;
      }
    }
  }
  EXPECT_GT(finite_pdp_features, 100);  // the similarity was exercised
}

// The training rows come from the same formulas as the serving rows:
// extract_features on generated PairTraces equals the oracle, bit for bit,
// on the same metrics carried in PhyObservations. The traces cover a ToF
// that either side could not measure (nullopt), PDPs of different lengths
// with tied maxima, and every initial MCS.
TEST(PdpKernelEquivalence, ExtractFeaturesMatchesOracle) {
  util::Rng rng(48);
  const auto generated = [&rng] {
    trace::PairTrace t;
    t.snr_db = rng.uniform(-5.0, 30.0);
    t.noise_dbm = rng.uniform(-80.0, -60.0);
    if (rng.bernoulli(0.7)) t.tof_ns = rng.uniform(5.0, 60.0);
    t.pdp = pdp_shaped(rng, static_cast<std::size_t>(rng.uniform_int(1, 300)));
    if (rng.bernoulli(0.3)) {
      const std::size_t tie = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(t.pdp.size()) - 1));
      t.pdp[tie] = *std::max_element(t.pdp.begin(), t.pdp.end());
    }
    t.csi = pdp_shaped(rng, 128);
    for (int m = 0; m < 9; ++m) {
      t.cdr.push_back(rng.uniform(0.0, 1.0));
      t.throughput_mbps.push_back(rng.uniform(0.0, 4750.0));
    }
    return t;
  };
  const auto as_observation = [](const trace::PairTrace& t, double cdr) {
    phy::PhyObservation o;
    o.snr_db = t.snr_db;
    o.noise_dbm = t.noise_dbm;
    o.tof_ns = t.tof_ns;
    o.pdp = t.pdp;
    o.csi = t.csi;
    o.cdr = cdr;
    return o;
  };
  int unmeasured_tof = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    trace::CaseRecord rec;
    rec.init_best = generated();
    rec.new_at_init_pair = generated();
    rec.init_mcs = rng.uniform_int(0, 8);
    const double cdr =
        rec.new_at_init_pair.cdr[static_cast<std::size_t>(rec.init_mcs)];
    const trace::FeatureVector exp = oracle_features(
        as_observation(rec.init_best, 0.0),
        as_observation(rec.new_at_init_pair, cdr), rec.init_mcs);
    ASSERT_TRUE(trace::all_finite(exp));
    const trace::FeatureVector got = trace::extract_features(rec);
    for (std::size_t i = 0; i < exp.v.size(); ++i) {
      EXPECT_EQ(bits(got.v[i]), bits(exp.v[i]))
          << "feature " << i << ": " << got.v[i] << " vs " << exp.v[i];
    }
    if (exp.v[1] == trace::kTofInfinity) ++unmeasured_tof;
  }
  EXPECT_GT(unmeasured_tof, 50);  // the nullopt branch was exercised
}

// A materialized baseline that a fault truncates keeps no stale peak
// either: the similarity reads the truncated PDP's own first maximum.
TEST(PdpKernelEquivalence, TruncatedBaselineReadsItsOwnPeak) {
  KernelWorld w;
  const phy::PhySampler& sampler = w.sampler;
  util::Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    phy::PhyObservation base = sampler.observe(w.link, 12, 12, 4, rng);
    phy::PhyObservation base_oracle = base;
    const double keep = 0.02 * trial;
    faults::truncate_observation(base, keep);
    faults::truncate_observation(base_oracle, keep);
    const phy::PhyObservation obs = sampler.observe(w.link, 12, 12, 4, rng);
    w.probe.set_baseline(base);
    const trace::FeatureVector got = w.probe.features(obs);
    const trace::FeatureVector exp =
        oracle_features(base_oracle, obs, w.probe.mcs());
    EXPECT_EQ(bits(got.v[3]), bits(exp.v[3]));
    EXPECT_EQ(base.peak_tap(), oracle_peak(base.pdp));
  }
}

// A PDP shortened without edit_pdp() keeps its stored peak only while that
// peak indexes it: past the end, peak_tap() scans the shortened PDP.
TEST(PdpKernelEquivalence, StoredPeakNeverIndexesPastThePdp) {
  KernelWorld w;
  const phy::PhySampler& sampler = w.sampler;
  util::Rng rng(53);
  phy::PhyObservation obs = sampler.observe(w.link, 12, 12, 4, rng);
  const std::size_t peak = obs.peak_tap();
  ASSERT_GT(peak, 0u);
  obs.pdp.resize(peak);
  EXPECT_EQ(obs.peak_tap(), oracle_peak(obs.pdp));
}

// The live scrape counts materializations and channel-memo traffic.
TEST(PdpKernelTelemetry, CountsMaterializationsAndMemoTraffic) {
  KernelWorld w;
  const phy::PhySampler& sampler = w.sampler;
  const auto count = [](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const auto* c = snap.find_counter(name);
    return c ? c->value : 0;
  };
  const std::uint64_t mat0 = count("phy.materializations");
  const std::uint64_t hit0 = count("channel.memo_hits");
  const std::uint64_t miss0 = count("channel.memo_misses");
  util::Rng rng(3);
  w.link.refresh();  // the next query misses
  phy::PhyObservation obs = sampler.observe_deferred(w.link, 12, 12, 4, rng);
  EXPECT_EQ(count("channel.memo_misses") - miss0, 1u);
  EXPECT_EQ(count("channel.memo_hits") - hit0, 1u);  // the PDP's paths
  EXPECT_EQ(count("phy.materializations"), mat0);
  phy::PhyObservation copy = obs;
  obs.materialize();
  obs.materialize();  // no-op
  copy.materialize();
  EXPECT_EQ(count("phy.materializations") - mat0, 2u);
  (void)sampler.observe_rate(w.link, 12, 12, 4, rng);
  EXPECT_EQ(count("channel.memo_hits") - hit0, 2u);
  EXPECT_EQ(count("channel.memo_misses") - miss0, 1u);
}

}  // namespace
}  // namespace libra
