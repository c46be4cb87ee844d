#include "phy/pdp.h"

#include <stdexcept>
#include <string>

#include "util/fft.h"
#include "util/units.h"

namespace libra::phy {

void validate(const PdpConfig& cfg, const char* prefix) {
  if (cfg.num_taps <= 0) {
    throw std::invalid_argument(std::string(prefix) +
                                "num_taps must be > 0, got " +
                                std::to_string(cfg.num_taps));
  }
  const auto require_positive = [prefix](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      throw std::invalid_argument(std::string(prefix) + field +
                                  " must be finite and > 0, got " +
                                  std::to_string(v));
    }
  };
  require_positive(cfg.tap_spacing_ns, "tap_spacing_ns");
  require_positive(cfg.noise_floor_mw, "noise_floor_mw");
}

void synthesize_pdp(const channel::PairChannel& paths, const PdpConfig& cfg,
                    std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(cfg.num_taps), cfg.noise_floor_mw);
  for (std::size_t i = 0; i < paths.contributions.size(); ++i) {
    if (const auto tap = tap_index(paths.contributions[i].delay_ns, cfg)) {
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
