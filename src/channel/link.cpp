#include "channel/link.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "util/units.h"

namespace libra::channel {

namespace {
constexpr double kNoSignalDbm = -200.0;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct MemoCounters {
  obs::Counter& hits;
  obs::Counter& misses;
};
MemoCounters& memo_counters() {
  obs::Registry& r = obs::Registry::global();
  static MemoCounters c{r.counter("channel.memo_hits"),
                        r.counter("channel.memo_misses")};
  return c;
}

// Throws std::invalid_argument naming the first field of `cfg` outside its
// range.
const LinkBudgetConfig& validated(const LinkBudgetConfig& cfg) {
  const auto check = [](bool ok, const char* field, const char* range,
                        double value) {
    if (!ok) {
      char got[32];
      std::snprintf(got, sizeof got, "%g", value);
      throw std::invalid_argument(std::string("LinkBudgetConfig: ") + field +
                                  " must be " + range + ", got " + got);
    }
  };
  check(std::isfinite(cfg.tx_power_dbm), "tx_power_dbm", "finite",
        cfg.tx_power_dbm);
  check(std::isfinite(cfg.frequency_hz) && cfg.frequency_hz > 0.0,
        "frequency_hz", "finite and > 0", cfg.frequency_hz);
  check(std::isfinite(cfg.bandwidth_hz) && cfg.bandwidth_hz > 0.0,
        "bandwidth_hz", "finite and > 0", cfg.bandwidth_hz);
  check(std::isfinite(cfg.noise_figure_db), "noise_figure_db", "finite",
        cfg.noise_figure_db);
  check(std::isfinite(cfg.oxygen_db_per_m) && cfg.oxygen_db_per_m >= 0.0,
        "oxygen_db_per_m", "finite and >= 0", cfg.oxygen_db_per_m);
  check(std::isfinite(cfg.implementation_loss_db), "implementation_loss_db",
        "finite", cfg.implementation_loss_db);
  return cfg;
}
}  // namespace

Link::Link(const env::Environment* env, array::PhasedArray* tx,
           array::PhasedArray* rx, LinkBudgetConfig cfg)
    : env_(env),
      tx_(tx),
      rx_(rx),
      cfg_(validated(cfg)),
      thermal_floor_dbm_(thermal_noise_floor_dbm(cfg)) {
  if (!env_ || !tx_ || !rx_) throw std::invalid_argument("null link member");
  refresh();
}

void Link::refresh() {
  paths_ = tracer_.trace(*env_, tx_->position(), rx_->position());
  ++paths_version_;
  set_interferer(interferer_);
}

void Link::set_interferer(std::optional<Interferer> interferer) {
  if (interferer && !(interferer->duty_cycle >= 0.0 &&
                      interferer->duty_cycle <= 1.0)) {
    throw std::invalid_argument(
        "Interferer: duty_cycle must be in [0, 1], got " +
        std::to_string(interferer->duty_cycle));
  }
  interferer_ = interferer;
  if (interferer_) {
    interferer_paths_ =
        tracer_.trace(*env_, interferer_->position, rx_->position());
  } else {
    interferer_paths_.clear();
  }
  ++interferer_version_;
}

Link::PathTerms Link::path_terms(const Path& p) const {
  double blockage_db = 0.0;
  for (std::size_t i = 0; i + 1 < p.points.size(); ++i) {
    blockage_db += env_->blockage_loss_db(p.points[i], p.points[i + 1]);
  }
  return {path_loss_db(cfg_, p.length_m), p.reflection_loss_db, blockage_db};
}

double Link::total_power_dbm(double total_mw) const {
  if (total_mw <= 0.0) return kNoSignalDbm;
  return libra::util::mw_to_dbm(total_mw) + fade_db_;
}

const Link::ChannelEntry& Link::channel(array::BeamId tx_beam,
                                        array::BeamId rx_beam) const {
  const ChannelKey key{tx_beam,
                       rx_beam,
                       bits(tx_->boresight_deg()),
                       bits(rx_->boresight_deg()),
                       paths_version_,
                       env_->blocker_generation()};
  MemoCounters& counters = memo_counters();
  if (channel_memo_ && channel_memo_->key == key) {
    counters.hits.inc();
    return *channel_memo_;
  }
  counters.misses.inc();
  auto out = std::make_shared<PairChannel>();
  out->contributions.reserve(paths_.size());
  out->rx_power_mw.reserve(paths_.size());
  double total_mw = 0.0;
  for (const Path& p : paths_) {
    const double power =
        path_power_dbm(path_terms(p), tx_->gain_dbi(tx_beam, p.aod_deg),
                       rx_->gain_dbi(rx_beam, p.aoa_deg));
    out->contributions.push_back({power,
                                  p.length_m / libra::util::kSpeedOfLightMps *
                                      libra::util::kNsPerSecond,
                                  p.aod_deg, p.aoa_deg, p.bounces});
    out->rx_power_mw.push_back(libra::util::dbm_to_mw(power));
    total_mw += out->rx_power_mw.back();
  }
  channel_memo_ = ChannelEntry{key, std::move(out), total_mw};
  return *channel_memo_;
}

std::shared_ptr<const PairChannel> Link::pair_channel(
    array::BeamId tx_beam, array::BeamId rx_beam) const {
  return channel(tx_beam, rx_beam).paths;
}

double Link::rx_power_dbm(array::BeamId tx_beam, array::BeamId rx_beam) const {
  return total_power_dbm(channel(tx_beam, rx_beam).total_mw);
}

Link::SweepTable::SweepTable(const Link& link)
    : link_(&link), n_paths_(link.paths_.size()) {
  terms_.reserve(n_paths_);
  for (const Path& p : link.paths_) terms_.push_back(link.path_terms(p));
  const auto gain_table = [&](const array::PhasedArray& antenna,
                              double Path::*angle_deg) {
    const array::Codebook& codebook = antenna.codebook();
    const auto n_beams = static_cast<std::size_t>(codebook.size());
    // PhasedArray::gain_dbi's array-frame angles, once per path.
    std::vector<double> array_angle(n_paths_);
    for (std::size_t i = 0; i < n_paths_; ++i) {
      array_angle[i] = antenna.array_angle_deg(link.paths_[i].*angle_deg);
    }
    std::vector<double> gain(n_beams * n_paths_);
    for (std::size_t b = 0; b < n_beams; ++b) {
      for (std::size_t i = 0; i < n_paths_; ++i) {
        gain[b * n_paths_ + i] =
            codebook.gain_dbi(static_cast<array::BeamId>(b), array_angle[i]);
      }
    }
    return gain;
  };
  tx_gain_ = gain_table(*link.tx_, &Path::aod_deg);
  rx_gain_ = gain_table(*link.rx_, &Path::aoa_deg);
  // The best gain any beam of a table has toward each path.
  const auto best_gain = [&](const std::vector<double>& gain) {
    std::vector<double> best(n_paths_,
                             -std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < gain.size(); ++k) {
      best[k % n_paths_] = std::max(best[k % n_paths_], gain[k]);
    }
    return best;
  };
  const std::vector<double> tx_best = best_gain(tx_gain_);
  const std::vector<double> rx_best = best_gain(rx_gain_);
  // Each bound sums an upper bound on every path's mW term
  // (util::dbm_to_mw_upper_bound: exp2f with a certified margin, no pow).
  // Every other step from a gain to that sum is monotone (round-to-nearest
  // add and subtract, a sum of non-negative terms); the slack covers log10
  // after it. A pair whose sum is zero reads the no-signal floor, which
  // carries no fade, hence the clamp.
  const auto bound_dbm = [&](const double* tx_gain_dbi,
                             const double* rx_gain_dbi) {
    double total_mw = 0.0;
    for (std::size_t i = 0; i < n_paths_; ++i) {
      total_mw += libra::util::dbm_to_mw_upper_bound(
          link.path_power_dbm(terms_[i], tx_gain_dbi[i], rx_gain_dbi[i]));
    }
    return std::max(link.total_power_dbm(total_mw * (1.0 + kBoundSlack)),
                    kNoSignalDbm);
  };
  const auto n_tx = static_cast<std::size_t>(link.tx_->codebook().size());
  const auto n_rx = static_cast<std::size_t>(link.rx_->codebook().size());
  tx_bound_dbm_.resize(n_tx);
  for (std::size_t tb = 0; tb < n_tx; ++tb) {
    tx_bound_dbm_[tb] =
        bound_dbm(tx_gain_.data() + tb * n_paths_, rx_best.data());
  }
  rx_bound_dbm_.resize(n_rx);
  for (std::size_t rb = 0; rb < n_rx; ++rb) {
    rx_bound_dbm_[rb] =
        bound_dbm(tx_best.data(), rx_gain_.data() + rb * n_paths_);
  }
}

double Link::SweepTable::rx_power_dbm(array::BeamId tx_beam,
                                      array::BeamId rx_beam) const {
  const double* tx_gain_dbi =
      tx_gain_.data() + static_cast<std::size_t>(tx_beam) * n_paths_;
  const double* rx_gain_dbi =
      rx_gain_.data() + static_cast<std::size_t>(rx_beam) * n_paths_;
  double total_mw = 0.0;
  for (std::size_t i = 0; i < n_paths_; ++i) {
    total_mw += libra::util::dbm_to_mw(
        link_->path_power_dbm(terms_[i], tx_gain_dbi[i], rx_gain_dbi[i]));
  }
  return link_->total_power_dbm(total_mw);
}

double Link::interference_power_dbm(array::BeamId rx_beam) const {
  if (!interferer_) return kNoSignalDbm;
  const InterferenceKey key{rx_beam, bits(rx_->boresight_deg()),
                            interferer_version_};
  if (interference_memo_ && interference_memo_->key == key) {
    return interference_memo_->power_dbm;
  }
  double total_mw = 0.0;
  for (const Path& p : interferer_paths_) {
    const double power = interferer_->eirp_dbm +
                         rx_->gain_dbi(rx_beam, p.aoa_deg) -
                         path_loss_db(cfg_, p.length_m) - p.reflection_loss_db;
    total_mw += libra::util::dbm_to_mw(power);
  }
  interference_memo_ = InterferenceEntry{
      key, total_mw <= 0.0 ? kNoSignalDbm : libra::util::mw_to_dbm(total_mw)};
  return interference_memo_->power_dbm;
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
