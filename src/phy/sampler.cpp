#include "phy/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/units.h"

namespace libra::phy {

namespace {
void require_positive(double v, const char* field) {
  if (!(std::isfinite(v) && v > 0.0)) {
    throw std::invalid_argument(std::string("SamplerConfig: ") + field +
                                " must be finite and > 0, got " +
                                std::to_string(v));
  }
}

// Synthesize the PDP, jitter every tap with one standard normal of the
// observation's tap substream, then derive the ToF and the CSI: the eager
// and the deferred path both run exactly this.
void fill_pdp(PhyObservation& obs,
              const std::vector<channel::PathContribution>& contributions,
              const PdpConfig& pdp_cfg, double tap_jitter,
              std::uint64_t tap_key) {
  obs.pdp = synthesize_pdp(contributions, pdp_cfg);
  std::vector<double> jitter(obs.pdp.size());
  util::fill_standard_normals(tap_key, jitter);
  for (std::size_t i = 0; i < obs.pdp.size(); ++i) {
    obs.pdp[i] *= std::exp(jitter[i] * tap_jitter);
  }
  obs.tof_ns = time_of_flight_ns(obs.pdp, pdp_cfg);
  obs.csi = csi_from_pdp(obs.pdp);
}
}  // namespace

void PhyObservation::materialize() {
  if (!pending) return;
  fill_pdp(*this, *pending->contributions, pending->pdp, pending->tap_jitter,
           pending->tap_key);
  pending.reset();
}

PhySampler::PhySampler(const ErrorModel* error_model, SamplerConfig cfg)
    : error_model_(error_model), cfg_(cfg) {
  if (!error_model_) throw std::invalid_argument("null error model");
  require_positive(cfg_.snr_jitter_db, "snr_jitter_db");
  require_positive(cfg_.noise_jitter_db, "noise_jitter_db");
  require_positive(cfg_.pdp_tap_jitter, "pdp_tap_jitter");
  require_positive(cfg_.cdr_jitter, "cdr_jitter");
  if (cfg_.pdp.num_taps <= 0) {
    throw std::invalid_argument(
        "SamplerConfig: pdp.num_taps must be > 0, got " +
        std::to_string(cfg_.pdp.num_taps));
  }
  require_positive(cfg_.pdp.tap_spacing_ns, "pdp.tap_spacing_ns");
  require_positive(cfg_.pdp.noise_floor_mw, "pdp.noise_floor_mw");
}

PhyObservation PhySampler::observe(const channel::Link& link,
                                   array::BeamId tx_beam,
                                   array::BeamId rx_beam, McsIndex mcs,
                                   util::Rng& rng) const {
  return sample(link, tx_beam, rx_beam, mcs, rng, PdpMode::kEager);
}

PhyObservation PhySampler::observe_deferred(const channel::Link& link,
                                            array::BeamId tx_beam,
                                            array::BeamId rx_beam,
                                            McsIndex mcs,
                                            util::Rng& rng) const {
  return sample(link, tx_beam, rx_beam, mcs, rng, PdpMode::kDeferred);
}

PhyObservation PhySampler::observe_rate(const channel::Link& link,
                                        array::BeamId tx_beam,
                                        array::BeamId rx_beam, McsIndex mcs,
                                        util::Rng& rng) const {
  return sample(link, tx_beam, rx_beam, mcs, rng, PdpMode::kNone);
}

PhyObservation PhySampler::sample(const channel::Link& link,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam, McsIndex mcs,
                                  util::Rng& rng, PdpMode mode) const {
  PhyObservation obs;
  obs.mcs = mcs;

  // The link memoizes the beam pair's channel, so this and the PDP's
  // contributions below share one channel pass.
  const double rx_dbm = link.rx_power_dbm(tx_beam, rx_beam);
  const double clean_floor = link.clean_floor_dbm();
  const double beam_floor = link.noise_floor_dbm(rx_beam);

  // A bursty interferer jams `duty` of the frames; per-frame logs average
  // the clean and jammed regimes.
  const double duty =
      link.interferer() ? link.interferer()->duty_cycle : 0.0;
  const double snr_clean = rx_dbm - clean_floor;
  const double snr_jam = rx_dbm - beam_floor;
  const double true_snr = (1.0 - duty) * snr_clean + duty * snr_jam;
  obs.snr_db = true_snr + rng.gaussian(0.0, cfg_.snr_jitter_db);
  const double avg_floor = (1.0 - duty) * clean_floor + duty * beam_floor;
  obs.noise_dbm = avg_floor + rng.gaussian(0.0, cfg_.noise_jitter_db);

  // One word of the caller's stream keys this observation's tap jitters.
  // Every mode draws it, so all three consume the same stream, and a frame
  // whose PDP is never computed pays for no jitter draws.
  const std::uint64_t tap_key = rng.word();
  if (mode != PdpMode::kNone) {
    // Taps are detectable only above the receiver's effective noise floor;
    // this is what makes X60 report ToF = infinity for very weak signals.
    PdpConfig pdp_cfg = cfg_.pdp;
    pdp_cfg.noise_floor_mw = libra::util::dbm_to_mw(beam_floor - 6.0);
    auto contributions = link.contributions(tx_beam, rx_beam);
    if (mode == PdpMode::kEager) {
      fill_pdp(obs, *contributions, pdp_cfg, cfg_.pdp_tap_jitter, tap_key);
    } else {
      obs.pending = std::make_shared<const PendingPdp>(PendingPdp{
          std::move(contributions), pdp_cfg, cfg_.pdp_tap_jitter, tap_key});
    }
  }

  const double expected_cdr =
      (1.0 - duty) * error_model_->expected_cdr(mcs, snr_clean) +
      duty * error_model_->expected_cdr(mcs, snr_jam);
  obs.cdr = std::clamp(expected_cdr + rng.gaussian(0.0, cfg_.cdr_jitter), 0.0,
                       1.0);
  obs.throughput_mbps = error_model_->table().rate_mbps(mcs) * obs.cdr *
                        error_model_->config().framing_efficiency;
  return obs;
}

double PhySampler::measure_snr_db(const channel::Link& link,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam,
                                  util::Rng& rng) const {
  const double avg = mean_snr_db(link, link.rx_power_dbm(tx_beam, rx_beam),
                                 link.noise_floor_dbm(rx_beam));
  return avg + snr_jitter_db(rng);
}

double PhySampler::mean_snr_db(const channel::Link& link,
                               double rx_power_dbm,
                               double noise_floor_dbm) const {
  const double duty =
      link.interferer() ? link.interferer()->duty_cycle : 0.0;
  return (1.0 - duty) * (rx_power_dbm - link.clean_floor_dbm()) +
         duty * (rx_power_dbm - noise_floor_dbm);
}

}  // namespace libra::phy
