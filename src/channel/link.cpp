#include "channel/link.h"

#include <stdexcept>

#include "util/units.h"

namespace libra::channel {

namespace {
constexpr double kNoSignalDbm = -200.0;
}

Link::Link(const env::Environment* env, array::PhasedArray* tx,
           array::PhasedArray* rx, LinkBudgetConfig cfg)
    : env_(env),
      tx_(tx),
      rx_(rx),
      cfg_(cfg),
      thermal_floor_dbm_(thermal_noise_floor_dbm(cfg)) {
  if (!env_ || !tx_ || !rx_) throw std::invalid_argument("null link member");
  refresh();
}

void Link::refresh() {
  paths_ = tracer_.trace(*env_, tx_->position(), rx_->position());
  if (interferer_) {
    interferer_paths_ =
        tracer_.trace(*env_, interferer_->position, rx_->position());
  } else {
    interferer_paths_.clear();
  }
}

void Link::set_interferer(std::optional<Interferer> interferer) {
  interferer_ = interferer;
  if (interferer_) {
    interferer_paths_ =
        tracer_.trace(*env_, interferer_->position, rx_->position());
  } else {
    interferer_paths_.clear();
  }
}

Link::PathTerms Link::path_terms(const Path& p) const {
  double blockage_db = 0.0;
  for (std::size_t i = 0; i + 1 < p.points.size(); ++i) {
    blockage_db += env_->blockage_loss_db(p.points[i], p.points[i + 1]);
  }
  return {path_loss_db(cfg_, p.length_m), p.reflection_loss_db, blockage_db};
}

template <typename PowerAt>
double Link::sum_power_dbm(std::size_t n, PowerAt power_at) const {
  double total_mw = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total_mw += libra::util::dbm_to_mw(power_at(i));
  }
  if (total_mw <= 0.0) return kNoSignalDbm;
  return libra::util::mw_to_dbm(total_mw) + fade_db_;
}

std::vector<PathContribution> Link::contributions(
    array::BeamId tx_beam, array::BeamId rx_beam) const {
  std::vector<PathContribution> out;
  out.reserve(paths_.size());
  for (const Path& p : paths_) {
    const double power =
        path_power_dbm(path_terms(p), tx_->gain_dbi(tx_beam, p.aod_deg),
                       rx_->gain_dbi(rx_beam, p.aoa_deg));
    out.push_back({power,
                   p.length_m / libra::util::kSpeedOfLightMps *
                       libra::util::kNsPerSecond,
                   p.aod_deg, p.aoa_deg, p.bounces});
  }
  return out;
}

double Link::rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const {
  return sum_power_dbm(paths_.size(), [&](std::size_t i) {
    const Path& p = paths_[i];
    return path_power_dbm(path_terms(p), tx_->gain_dbi(tx_beam, p.aod_deg),
                          rx_->gain_dbi(rx_beam, p.aoa_deg));
  });
}

double Link::rx_power_dbm(
    const std::vector<PathContribution>& contributions) const {
  return sum_power_dbm(contributions.size(), [&](std::size_t i) {
    return contributions[i].rx_power_dbm;
  });
}

std::vector<double> Link::rx_power_grid_dbm() const {
  const std::size_t n_paths = paths_.size();
  std::vector<PathTerms> terms;
  terms.reserve(n_paths);
  for (const Path& p : paths_) terms.push_back(path_terms(p));
  // Beam-major gain table: entry b * n_paths + i is beam b toward path i.
  const auto gain_table = [&](const array::PhasedArray& antenna,
                              double Path::*angle_deg) {
    const auto n_beams = static_cast<std::size_t>(antenna.codebook().size());
    std::vector<double> gain(n_beams * n_paths);
    for (std::size_t b = 0; b < n_beams; ++b) {
      for (std::size_t i = 0; i < n_paths; ++i) {
        gain[b * n_paths + i] = antenna.gain_dbi(
            static_cast<array::BeamId>(b), paths_[i].*angle_deg);
      }
    }
    return gain;
  };
  const std::vector<double> tx_gain = gain_table(*tx_, &Path::aod_deg);
  const std::vector<double> rx_gain = gain_table(*rx_, &Path::aoa_deg);
  const auto n_tx = static_cast<std::size_t>(tx_->codebook().size());
  const auto n_rx = static_cast<std::size_t>(rx_->codebook().size());
  std::vector<double> grid(n_tx * n_rx);
  for (std::size_t tb = 0; tb < n_tx; ++tb) {
    const double* g_tx = tx_gain.data() + tb * n_paths;
    for (std::size_t rb = 0; rb < n_rx; ++rb) {
      const double* g_rx = rx_gain.data() + rb * n_paths;
      grid[tb * n_rx + rb] = sum_power_dbm(n_paths, [&](std::size_t i) {
        return path_power_dbm(terms[i], g_tx[i], g_rx[i]);
      });
    }
  }
  return grid;
}

double Link::interference_power_dbm(array::BeamId rx_beam) const {
  if (!interferer_) return kNoSignalDbm;
  double total_mw = 0.0;
  for (const Path& p : interferer_paths_) {
    const double power = interferer_->eirp_dbm +
                         rx_->gain_dbi(rx_beam, p.aoa_deg) -
                         path_loss_db(cfg_, p.length_m) - p.reflection_loss_db;
    total_mw += libra::util::dbm_to_mw(power);
  }
  if (total_mw <= 0.0) return kNoSignalDbm;
  return libra::util::mw_to_dbm(total_mw);
}

double Link::noise_floor_dbm(array::BeamId rx_beam) const {
  const double base = clean_floor_dbm();
  if (!interferer_) return base;
  return libra::util::dbm_add(base, interference_power_dbm(rx_beam));
}

double Link::snr_db(array::BeamId tx_beam, array::BeamId rx_beam) const {
  return rx_power_dbm(tx_beam, rx_beam) - noise_floor_dbm(rx_beam);
}

double Link::snr_clean_db(array::BeamId tx_beam,
                          array::BeamId rx_beam) const {
  return rx_power_dbm(tx_beam, rx_beam) - clean_floor_dbm();
}

}  // namespace libra::channel
