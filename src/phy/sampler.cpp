#include "phy/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
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

obs::Counter& materializations() {
  static obs::Counter& c =
      obs::Registry::global().counter("phy.materializations");
  return c;
}
}  // namespace

void PhyObservation::materialize() {
  if (!pending) return;
  materializations().inc();
  const PendingPdp& p = *pending;
  synthesize_pdp(*p.channel, p.pdp, pdp);
  // Jitter every tap with one standard normal of the observation's tap
  // substream, offering each jittered tap to the strongest_tap() rule.
  thread_local std::vector<double> normals;
  normals.resize(pdp.size());
  util::fill_standard_normals(p.tap_key, normals);
  FirstMax peak;
  for (std::size_t i = 0; i < pdp.size(); ++i) {
    pdp[i] *= std::exp(normals[i] * p.tap_jitter);
    peak.offer(pdp, i);
  }
  pdp_peak_ = peak.index;
  tof_ns = tof_at_peak_ns(pdp, pdp_peak_, p.pdp);
  csi_from_pdp(pdp, csi);
  pending.reset();
}

PhySampler::PhySampler(const ErrorModel* error_model, SamplerConfig cfg)
    : error_model_(error_model), cfg_(cfg) {
  if (!error_model_) throw std::invalid_argument("null error model");
  require_positive(cfg_.snr_jitter_db, "snr_jitter_db");
  require_positive(cfg_.noise_jitter_db, "noise_jitter_db");
  require_positive(cfg_.pdp_tap_jitter, "pdp_tap_jitter");
  require_positive(cfg_.cdr_jitter, "cdr_jitter");
  validate(cfg_.pdp, "SamplerConfig: pdp.");
}

PhyObservation PhySampler::observe(const channel::Link& link,
                                   array::BeamId tx_beam,
                                   array::BeamId rx_beam, McsIndex mcs,
                                   util::Rng& rng) const {
  PhyObservation obs = observe_deferred(link, tx_beam, rx_beam, mcs, rng);
  obs.materialize();
  return obs;
}

PhyObservation PhySampler::observe_deferred(const channel::Link& link,
                                            array::BeamId tx_beam,
                                            array::BeamId rx_beam,
                                            McsIndex mcs,
                                            util::Rng& rng) const {
  return sample(link, tx_beam, rx_beam, mcs, rng, true);
}

PhyObservation PhySampler::observe_rate(const channel::Link& link,
                                        array::BeamId tx_beam,
                                        array::BeamId rx_beam, McsIndex mcs,
                                        util::Rng& rng) const {
  return sample(link, tx_beam, rx_beam, mcs, rng, false);
}

PhyObservation PhySampler::sample(const channel::Link& link,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam, McsIndex mcs,
                                  util::Rng& rng, bool with_pdp) const {
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
  // Both modes draw it, so both consume the same stream, and a frame whose
  // PDP is never computed pays for no jitter draws.
  const std::uint64_t tap_key = rng.word();
  if (with_pdp) {
    // Taps are detectable only above the receiver's effective noise floor;
    // this is what makes X60 report ToF = infinity for very weak signals.
    PdpConfig pdp_cfg = cfg_.pdp;
    pdp_cfg.noise_floor_mw = libra::util::dbm_to_mw(beam_floor - 6.0);
    obs.pending = std::make_shared<const PendingPdp>(
        PendingPdp{link.pair_channel(tx_beam, rx_beam), pdp_cfg,
                   cfg_.pdp_tap_jitter, tap_key});
  }

  const double expected_cdr =
      (1.0 - duty) * error_model_->expected_cdr(mcs, snr_clean) +
      duty * error_model_->expected_cdr(mcs, snr_jam);
  obs.cdr = std::clamp(expected_cdr + rng.gaussian(0.0, cfg_.cdr_jitter), 0.0,
                       1.0);
  obs.throughput_mbps =
      error_model_->table().rate_mbps(mcs) * obs.cdr * kFramingEfficiency;
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
