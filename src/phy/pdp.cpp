#include "phy/pdp.h"

#include <stdexcept>
#include <string>

#include "util/fft.h"
#include "util/units.h"

namespace libra::phy {

namespace {
void validate(const PdpConfig& cfg) {
  if (!(std::isfinite(cfg.noise_floor_mw) && cfg.noise_floor_mw > 0.0)) {
    throw std::invalid_argument(
        "PdpConfig: noise_floor_mw must be finite and > 0, got " +
        std::to_string(cfg.noise_floor_mw));
  }
}
}  // namespace

void synthesize_pdp(const channel::PairChannel& paths, const PdpConfig& cfg,
                    std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(kNumTaps), cfg.noise_floor_mw);
  for (std::size_t i = 0; i < paths.contributions.size(); ++i) {
    if (const auto tap = tap_index(paths.contributions[i].delay_ns)) {
      out[*tap] += paths.rx_power_mw[i];
    }
  }
}

std::vector<double> synthesize_pdp(
    const std::vector<channel::PathContribution>& contributions,
    const PdpConfig& cfg) {
  validate(cfg);
  channel::PairChannel paths{contributions, {}};
  for (const auto& c : contributions) {
    paths.rx_power_mw.push_back(libra::util::dbm_to_mw(c.rx_power_dbm));
  }
  std::vector<double> pdp;
  synthesize_pdp(paths, cfg, pdp);
  return pdp;
}

std::vector<double> csi_from_pdp(const std::vector<double>& pdp) {
  std::vector<double> csi;
  csi_from_pdp(pdp, csi);
  return csi;
}

void csi_from_pdp(std::span<const double> pdp, std::vector<double>& out) {
  libra::util::magnitude_spectrum(pdp, out);
}

}  // namespace libra::phy
