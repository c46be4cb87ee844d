#include "mac/beam_training.h"

#include <algorithm>
#include <vector>

namespace libra::mac {

namespace {
double probes_to_ms(int probes, const BeamTrainerConfig& cfg) {
  return static_cast<double>(probes) * cfg.probe_us / 1000.0;
}
}  // namespace

SweepResult BeamTrainer::exhaustive(const channel::Link& link,
                                    const phy::PhySampler& sampler,
                                    util::Rng& rng) const {
  SweepResult best;
  best.snr_db = -1e9;
  const int n_tx = link.tx().codebook().size();
  const int n_rx = link.rx().codebook().size();
  // The channel side of every probe, evaluated once per sweep; only the
  // per-probe jitter is drawn per pair, in the same tb-major order.
  const std::vector<double> rx_power = link.rx_power_grid_dbm();
  std::vector<double> noise_floor(static_cast<std::size_t>(n_rx));
  for (array::BeamId rb = 0; rb < n_rx; ++rb) {
    noise_floor[static_cast<std::size_t>(rb)] = link.noise_floor_dbm(rb);
  }
  for (array::BeamId tb = 0; tb < n_tx; ++tb) {
    for (array::BeamId rb = 0; rb < n_rx; ++rb) {
      const double snr = sampler.measure_snr_db(
          link, rx_power[static_cast<std::size_t>(tb * n_rx + rb)],
          noise_floor[static_cast<std::size_t>(rb)], rng);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms = probes_to_ms(best.measurements, cfg_);
  return best;
}

SweepResult BeamTrainer::sls_80211ad(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng) const {
  SweepResult best;
  best.snr_db = -1e9;
  // Phase 1: Tx sweep, quasi-omni reception.
  for (array::BeamId tb = 0; tb < link.tx().codebook().size(); ++tb) {
    const double snr = sampler.measure_snr_db(link, tb, array::kQuasiOmni, rng);
    ++best.measurements;
    if (snr > best.snr_db) {
      best.snr_db = snr;
      best.tx_beam = tb;
    }
  }
  // Phase 2: Rx sweep with the chosen Tx beam... the standard actually uses
  // quasi-omni transmission, but evaluating with the trained Tx beam is
  // equivalent for pair selection and matches what devices do in practice.
  double best_rx_snr = -1e9;
  best.rx_beam = 0;
  for (array::BeamId rb = 0; rb < link.rx().codebook().size(); ++rb) {
    const double snr = sampler.measure_snr_db(link, best.tx_beam, rb, rng);
    ++best.measurements;
    if (snr > best_rx_snr) {
      best_rx_snr = snr;
      best.rx_beam = rb;
    }
  }
  best.snr_db = best_rx_snr;
  best.duration_ms = probes_to_ms(best.measurements, cfg_);
  return best;
}

SweepResult BeamTrainer::sls_tx_only(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng) const {
  SweepResult best;
  best.snr_db = -1e9;
  best.rx_beam = array::kQuasiOmni;
  for (array::BeamId tb = 0; tb < link.tx().codebook().size(); ++tb) {
    const double snr = sampler.measure_snr_db(link, tb, array::kQuasiOmni, rng);
    ++best.measurements;
    if (snr > best.snr_db) {
      best.snr_db = snr;
      best.tx_beam = tb;
    }
  }
  best.duration_ms = probes_to_ms(best.measurements, cfg_);
  return best;
}

SweepResult BeamTrainer::coarse_fine(const channel::Link& link,
                                     const phy::PhySampler& sampler,
                                     util::Rng& rng, int stride,
                                     int radius) const {
  SweepResult best;
  best.snr_db = -1e9;
  const int n_tx = link.tx().codebook().size();
  const int n_rx = link.rx().codebook().size();

  // Level 1: coarse grid, offset so the probes straddle the span center.
  const int offset = stride / 2;
  for (array::BeamId tb = offset; tb < n_tx; tb += stride) {
    for (array::BeamId rb = offset; rb < n_rx; rb += stride) {
      const double snr = sampler.measure_snr_db(link, tb, rb, rng);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }

  // Level 2: exhaustive refinement around the coarse winner.
  const array::BeamId coarse_tx = best.tx_beam;
  const array::BeamId coarse_rx = best.rx_beam;
  for (array::BeamId tb = std::max(0, coarse_tx - radius);
       tb <= std::min(n_tx - 1, coarse_tx + radius); ++tb) {
    for (array::BeamId rb = std::max(0, coarse_rx - radius);
         rb <= std::min(n_rx - 1, coarse_rx + radius); ++rb) {
      if (tb == coarse_tx && rb == coarse_rx) continue;  // already measured
      const double snr = sampler.measure_snr_db(link, tb, rb, rng);
      ++best.measurements;
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.duration_ms = probes_to_ms(best.measurements, cfg_);
  return best;
}

}  // namespace libra::mac
