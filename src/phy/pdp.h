// Power delay profile synthesis and derived metrics (Sec. 6.1).
//
// X60 logs the PDP per frame; LiBRA derives from it:
//   - ToF: delay of the strongest tap (reported as "infinity" when the
//     signal is too weak, e.g. after a 90-degree rotation),
//   - CSI estimate: FFT of the PDP (time -> frequency domain),
//   - PDP / CSI similarity: Pearson correlation against a reference.
//
// A sampled observation builds its PDP, ToF and CSI with the functions
// below: PhyObservation::materialize() runs synthesize_pdp() on the channel
// memo's paths, jitters the taps while FirstMax tracks the strongest one,
// takes the ToF from tof_at_peak_ns() and writes the CSI with
// csi_from_pdp() (docs/architecture.md, "PDP kernel: one pass,
// same bits").
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "channel/link.h"

namespace libra::phy {

struct PdpConfig {
  int num_taps = 256;
  double tap_spacing_ns = 1.0;   // 2 GHz bandwidth -> sub-ns resolution;
                                 // 1 ns keeps vectors small but preserves
                                 // multipath structure (0.3 m resolution)
  double noise_floor_mw = 1e-12; // per-tap measurement floor
};

// Throws std::invalid_argument naming the first bad field: num_taps must
// be > 0, tap_spacing_ns and noise_floor_mw finite and > 0. `prefix` leads
// the message (e.g. "SamplerConfig: pdp.").
void validate(const PdpConfig& cfg, const char* prefix = "PdpConfig: ");

// The tap a path delay lands on, or nullopt outside [0, num_taps): the
// delay over the tap spacing, rounded half away from zero.
inline std::optional<std::size_t> tap_index(double delay_ns,
                                            const PdpConfig& cfg) {
  const double tap = std::round(delay_ns / cfg.tap_spacing_ns);
  if (!(tap >= 0.0 && tap < static_cast<double>(cfg.num_taps))) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(tap);
}

// The first-maximum rule, as std::max_element applies it: offered taps
// 0, 1, 2, ... in order, a tap displaces the running peak only if it
// compares greater. So ties keep the earliest tap, a NaN tap never wins,
// and a leading NaN is never displaced. A loop that writes the taps can
// offer each one as it goes and skip a separate scan.
struct FirstMax {
  std::size_t index = 0;
  void offer(std::span<const double> pdp, std::size_t i) {
    if (pdp[index] < pdp[i]) index = i;
  }
};

// Index of the first maximum (FirstMax); 0 for an empty PDP.
inline std::size_t strongest_tap(std::span<const double> pdp) {
  FirstMax peak;
  for (std::size_t i = 1; i < pdp.size(); ++i) peak.offer(pdp, i);
  return peak.index;
}

// ToF of a PDP whose strongest tap (FirstMax) is `peak`, which must
// be < pdp.size(): nullopt unless the tap rises meaningfully above the
// measurement floor (X60 reports infinity otherwise, Sec. 6.1.1).
inline std::optional<double> tof_at_peak_ns(std::span<const double> pdp,
                                            std::size_t peak,
                                            const PdpConfig& cfg) {
  if (pdp[peak] < cfg.noise_floor_mw * 10.0) return std::nullopt;
  return static_cast<double>(peak) * cfg.tap_spacing_ns;
}

// Synthesize a PDP (linear mW per tap) into `out`, reusing its capacity:
// the noise floor on every tap plus each path's mW value at its
// tap_index(). `cfg` must pass validate(); this form does not check it, so
// a sampler validates its config once, not per observation.
void synthesize_pdp(const channel::PairChannel& paths, const PdpConfig& cfg,
                    std::vector<double>& out);

// The same PDP from per-path contributions, converting each path's dBm to
// mW. Validates cfg as validate() does.
std::vector<double> synthesize_pdp(
    const std::vector<channel::PathContribution>& contributions,
    const PdpConfig& cfg = {});

// CSI estimate: magnitude spectrum of the PDP (util::magnitude_spectrum),
// returned or written into `out`, reusing its capacity.
std::vector<double> csi_from_pdp(const std::vector<double>& pdp);
void csi_from_pdp(std::span<const double> pdp, std::vector<double>& out);

}  // namespace libra::phy
