#include "mac/beam_training.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace libra::mac {

namespace {
// Added to every pair's score bound (dB). The table's bounds already cover
// their own rounding; this covers any left in the mean-SNR formula.
constexpr double kScoreSlackDb = 1e-6;

double probes_to_ms(int probes, const BeamTrainerConfig& cfg) {
  return static_cast<double>(probes) * cfg.probe_us / 1000.0;
}

const BeamTrainerConfig& validated(const BeamTrainerConfig& cfg) {
  if (!(std::isfinite(cfg.probe_us) && cfg.probe_us > 0.0)) {
    throw std::invalid_argument(
        "BeamTrainerConfig: probe_us must be finite and > 0, got " +
        std::to_string(cfg.probe_us));
  }
  return cfg;
}
}  // namespace

BeamTrainer::BeamTrainer(BeamTrainerConfig cfg) : cfg_(validated(cfg)) {}

SweepResult BeamTrainer::exhaustive(const channel::Link& link,
                                    const phy::PhySampler& sampler,
                                    util::Rng& rng) const {
  return exhaustive_apart_from(link, sampler, rng, 0, 0);
}

SweepResult BeamTrainer::exhaustive_apart_from(
    const channel::Link& link, const phy::PhySampler& sampler,
    util::Rng& rng, array::BeamId primary_tx, int min_tx_gap) const {
  static obs::Counter& pairs_counter =
      obs::Registry::global().counter("mac.sweep.pairs");
  static obs::Counter& exact_counter =
      obs::Registry::global().counter("mac.sweep.exact_pairs");
  const int n_tx = link.tx().codebook().size();
  const int n_rx = link.rx().codebook().size();
  const auto row_len = static_cast<std::size_t>(n_rx);
  const auto pair = [row_len](array::BeamId tb, array::BeamId rb) {
    return static_cast<std::size_t>(tb) * row_len +
           static_cast<std::size_t>(rb);
  };
  const auto swept = [&](array::BeamId tb) {
    return std::abs(tb - primary_tx) >= min_tx_gap;
  };

  // Every probe's jitter, in the probes' tb-major order: the draws do not
  // depend on the channel, so the stream is that of probing every pair.
  std::vector<double> jitter(static_cast<std::size_t>(n_tx * n_rx));
  int probes = 0;
  for (array::BeamId tb = 0; tb < n_tx; ++tb) {
    if (!swept(tb)) continue;
    for (array::BeamId rb = 0; rb < n_rx; ++rb) {
      jitter[pair(tb, rb)] = sampler.snr_jitter_db(rng);
      ++probes;
    }
  }
  std::vector<double> noise_floor(static_cast<std::size_t>(n_rx));
  for (array::BeamId rb = 0; rb < n_rx; ++rb) {
    noise_floor[static_cast<std::size_t>(rb)] = link.noise_floor_dbm(rb);
  }
  const channel::Link::SweepTable table(link);
  const auto score = [&](double rx_power_dbm, array::BeamId tb,
                         array::BeamId rb) {
    return sampler.mean_snr_db(link, rx_power_dbm,
                               noise_floor[static_cast<std::size_t>(rb)]) +
           jitter[pair(tb, rb)];
  };

  // An upper bound on every swept pair's measured SNR; the pair with the
  // highest one is evaluated exactly first.
  std::vector<double> bound(jitter.size());
  std::size_t top = bound.size();
  for (array::BeamId tb = 0; tb < n_tx; ++tb) {
    if (!swept(tb)) continue;
    for (array::BeamId rb = 0; rb < n_rx; ++rb) {
      const std::size_t k = pair(tb, rb);
      const double rx_bound =
          std::min(table.tx_bound_dbm(tb), table.rx_bound_dbm(rb));
      bound[k] = score(rx_bound, tb, rb) + kScoreSlackDb;
      if (top == bound.size() || bound[k] > bound[top]) top = k;
    }
  }

  // The first maximum in tb-major order with strict >, as if every pair
  // were measured. A pair whose bound is below the top pair's score, or
  // below the best so far, cannot be that first maximum.
  SweepResult best;
  best.snr_db = -1e9;
  int exact = 0;
  double top_snr = -std::numeric_limits<double>::infinity();
  if (top != bound.size()) {
    const auto tb = static_cast<array::BeamId>(top / row_len);
    const auto rb = static_cast<array::BeamId>(top % row_len);
    top_snr = score(table.rx_power_dbm(tb, rb), tb, rb);
    ++exact;
  }
  for (array::BeamId tb = 0; tb < n_tx; ++tb) {
    if (!swept(tb)) continue;
    for (array::BeamId rb = 0; rb < n_rx; ++rb) {
      const std::size_t k = pair(tb, rb);
      if (bound[k] < top_snr || bound[k] < best.snr_db) continue;
      double snr = top_snr;
      if (k != top) {
        snr = score(table.rx_power_dbm(tb, rb), tb, rb);
        ++exact;
      }
      if (snr > best.snr_db) {
        best.snr_db = snr;
        best.tx_beam = tb;
        best.rx_beam = rb;
      }
    }
  }
  best.measurements = probes;
  best.duration_ms = probes_to_ms(best.measurements, cfg_);
  pairs_counter.inc(static_cast<std::uint64_t>(probes));
  exact_counter.inc(static_cast<std::uint64_t>(exact));
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
  if (stride < 1 || radius < 0) {
    throw std::invalid_argument(
        "coarse_fine: stride must be >= 1 and radius >= 0, got stride " +
        std::to_string(stride) + ", radius " + std::to_string(radius));
  }
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
