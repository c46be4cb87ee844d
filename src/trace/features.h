// Feature extraction (Sec. 6.1): the seven PHY-layer metrics LiBRA feeds to
// its classifiers, computed from the change between the initial-state trace
// and the impaired-state trace through the SAME (initial) beam pair -- i.e.
// what the transmitter can observe before adapting.
//
//   SNR difference       initial - current (dB); positive under impairment
//   ToF difference       initial - current (ns); negative = path got longer
//                        (backward motion / detour); +kTofInfinity sentinel
//                        when the current state's ToF is unmeasurable
//   Noise difference     current - initial (dB); rises under interference
//   PDP similarity       Pearson correlation of the two PDPs (time domain)
//   CSI similarity       Pearson correlation of the two |FFT(PDP)|
//   CDR                  codeword delivery ratio at the initial MCS, on the
//                        initial pair, at the current state
//   Initial MCS          the best MCS before the impairment
//
// The similarity metrics come from util::pearson and the FFT behind
// util::magnitude_spectrum. Both keep a fixed operation order, because the
// golden fleet digest and tests/paper_golden/ pin the features' bits and
// everything downstream of them (forest votes, fleet digests, paper tables).
// The PDP similarity aligns at each PDP's first maximum; a materialized
// observation already holds it (PhyObservation::peak_tap()), so the
// controller's feature path does not scan the PDPs again.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "phy/pdp.h"
#include "trace/collector.h"
#include "util/stats.h"

namespace libra::trace {

inline constexpr double kTofInfinity = 1000.0;  // sentinel (ns)

// Pearson similarity of two PDPs after aligning each to its strongest tap
// (peak_a of a, peak_b of b, each < its PDP's size when it is non-empty).
// X60 (like any receiver) time-synchronizes to the arriving signal, so the
// logged PDP is delay-aligned; comparing raw tap vectors would spuriously
// decorrelate a simple backward move (the whole profile shifts in time).
inline double aligned_pdp_similarity(std::span<const double> a,
                                     std::size_t peak_a,
                                     std::span<const double> b,
                                     std::size_t peak_b) {
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t len = std::min(a.size() - peak_a, b.size() - peak_b);
  if (len < 2) return 0.0;
  return util::pearson(a.subspan(peak_a, len), b.subspan(peak_b, len));
}

// The same, scanning each PDP for its first maximum (phy::strongest_tap).
// A materialized observation stores its peak; pass
// PhyObservation::peak_tap() to the form above to skip the scans.
inline double aligned_pdp_similarity(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  return aligned_pdp_similarity(a, phy::strongest_tap(a), b,
                                phy::strongest_tap(b));
}

struct FeatureVector {
  static constexpr int kDim = 7;
  static constexpr std::array<std::string_view, kDim> kNames = {
      "SNR", "ToF", "NoiseLevel", "PDP", "CSI", "CDR", "InitialMCS"};

  std::array<double, kDim> v{};

  double snr_diff_db() const { return v[0]; }
  double tof_diff_ns() const { return v[1]; }
  double noise_diff_db() const { return v[2]; }
  double pdp_similarity() const { return v[3]; }
  double csi_similarity() const { return v[4]; }
  double cdr() const { return v[5]; }
  double initial_mcs() const { return v[6]; }
};

// Index of the first non-finite feature, FeatureVector::kDim when every
// feature is finite.
inline std::size_t first_non_finite(const FeatureVector& f) {
  const auto it = std::find_if(f.v.begin(), f.v.end(),
                               [](double x) { return !std::isfinite(x); });
  return static_cast<std::size_t>(it - f.v.begin());
}

// A row the classifier, the trainer and the controller may use.
inline bool all_finite(const FeatureVector& f) {
  return first_non_finite(f) == FeatureVector::kDim;
}

// The seven features of `cur` against `init`, the one formula behind both
// the training rows (extract_features) and the serving rows
// (core::LinkController). Measurement is a PairTrace or a materialized
// phy::PhyObservation: it has snr_db, noise_dbm, tof_ns, pdp and csi.
// init_peak and cur_peak are strongest_tap() of each PDP; `cdr` is the
// codeword delivery ratio at `mcs`, the MCS in use before the impairment.
template <typename Measurement>
FeatureVector feature_deltas(const Measurement& init, std::size_t init_peak,
                             const Measurement& cur, std::size_t cur_peak,
                             double cdr, phy::McsIndex mcs) {
  FeatureVector f;
  f.v[0] = init.snr_db - cur.snr_db;
  f.v[1] = init.tof_ns && cur.tof_ns ? *init.tof_ns - *cur.tof_ns
                                     : kTofInfinity;
  f.v[2] = cur.noise_dbm - init.noise_dbm;
  f.v[3] = aligned_pdp_similarity(init.pdp, init_peak, cur.pdp, cur_peak);
  f.v[4] = util::pearson(init.csi, cur.csi);
  f.v[5] = cdr;
  f.v[6] = static_cast<double>(mcs);
  return f;
}

inline FeatureVector extract_features(const CaseRecord& rec) {
  // The CDR lookup below indexes with init_mcs; a hand-built or corrupted
  // record must fail loudly instead of reading out of bounds.
  const std::vector<double>& cdr = rec.new_at_init_pair.cdr;
  if (rec.init_mcs < 0 ||
      static_cast<std::size_t>(rec.init_mcs) >= cdr.size()) {
    throw std::invalid_argument(
        "extract_features: init_mcs " + std::to_string(rec.init_mcs) +
        " out of range for a CDR vector of " + std::to_string(cdr.size()) +
        " entries");
  }
  if (cdr.size() != rec.new_at_init_pair.throughput_mbps.size()) {
    throw std::invalid_argument(
        "extract_features: CDR vector has " + std::to_string(cdr.size()) +
        " entries but throughput has " +
        std::to_string(rec.new_at_init_pair.throughput_mbps.size()));
  }
  const FeatureVector f = feature_deltas(
      rec.init_best, phy::strongest_tap(rec.init_best.pdp),
      rec.new_at_init_pair, phy::strongest_tap(rec.new_at_init_pair.pdp),
      cdr[static_cast<std::size_t>(rec.init_mcs)], rec.init_mcs);
  // A NaN/Inf input metric (corrupted capture, poisoned observation) must
  // not propagate silently into training or inference; name the feature so
  // the bad field in the record is identifiable.
  if (const std::size_t bad = first_non_finite(f); bad < FeatureVector::kDim) {
    throw std::invalid_argument(
        "extract_features: non-finite " +
        std::string(FeatureVector::kNames[bad]) +
        " feature (check the source record's PHY metrics)");
  }
  return f;
}

}  // namespace libra::trace
