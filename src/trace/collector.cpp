#include "trace/collector.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/span.h"
#include "phy/pdp.h"
#include "trace/ground_truth.h"

namespace libra::trace {

bool PairTrace::works_at(phy::McsIndex m) const {
  const auto i = static_cast<std::size_t>(m);
  return is_working(cdr[i], throughput_mbps[i]);
}

phy::McsIndex PairTrace::best_mcs() const {
  phy::McsIndex best = -1;
  double best_tput = -1.0;
  for (std::size_t m = 0; m < throughput_mbps.size(); ++m) {
    if (!works_at(static_cast<phy::McsIndex>(m))) continue;
    if (throughput_mbps[m] > best_tput) {
      best_tput = throughput_mbps[m];
      best = static_cast<phy::McsIndex>(m);
    }
  }
  if (best >= 0) return best;
  // Nothing works: fall back to the raw throughput argmax (MCS 0 ties).
  best = 0;
  for (std::size_t m = 1; m < throughput_mbps.size(); ++m) {
    if (throughput_mbps[m] > throughput_mbps[static_cast<std::size_t>(best)]) {
      best = static_cast<phy::McsIndex>(m);
    }
  }
  return best;
}

namespace {

// Minimum Tx-sector index distance between the primary and the failover
// pair (MOCA keeps the backup angularly diverse so one obstacle cannot take
// out both).
constexpr int kFailoverMinSectorGap = 3;

phy::SamplerConfig averaged_config(int frames) {
  // Checked here, in the constructor's initializer list, so a bad count is
  // named before the sampler rejects the jitters it would scale.
  if (frames < 1) {
    throw std::invalid_argument(
        "CollectorConfig: frames_per_trace must be >= 1, got " +
        std::to_string(frames));
  }
  // 1-s traces average `frames` independent frame measurements; i.i.d.
  // jitter shrinks by sqrt(frames).
  phy::SamplerConfig cfg;
  const double scale = 1.0 / std::sqrt(static_cast<double>(frames));
  cfg.snr_jitter_db *= scale;
  cfg.noise_jitter_db *= scale;
  cfg.pdp_tap_jitter *= scale;
  cfg.cdr_jitter *= scale;
  return cfg;
}

void apply_state(env::Environment& environment, channel::Link& link,
                 const StateSpec& spec, double eirp_dbm) {
  link.rx().set_position(spec.rx.position);
  link.rx().set_boresight_deg(spec.rx.boresight_deg);
  environment.clear_blockers();
  for (const env::Blocker& b : spec.blockers) environment.add_blocker(b);
  if (spec.interferer_position) {
    // CSMA hidden terminal: the burst duty cycle sets the average
    // throughput drop; the (calibrated) EIRP makes bursts destructive.
    link.set_interferer(channel::Interferer{
        *spec.interferer_position, eirp_dbm,
        target_drop_fraction(*spec.interference_level)});
  } else {
    link.set_interferer(std::nullopt);
  }
  link.refresh();
}

}  // namespace

TraceCollector::TraceCollector(const phy::ErrorModel* error_model,
                               CollectorConfig cfg)
    : error_model_(error_model),
      cfg_(cfg),
      sweep_sampler_(error_model),
      trace_sampler_(error_model, averaged_config(cfg.frames_per_trace)) {
  if (!error_model_) throw std::invalid_argument("null error model");
}

PairTrace TraceCollector::measure_pair(const channel::Link& link,
                                       array::BeamId tx_beam,
                                       array::BeamId rx_beam,
                                       util::Rng& rng) const {
  PairTrace t;
  t.tx_beam = tx_beam;
  t.rx_beam = rx_beam;
  const int n_mcs = error_model_->table().size();
  t.throughput_mbps.resize(static_cast<std::size_t>(n_mcs));
  t.cdr.resize(static_cast<std::size_t>(n_mcs));
  for (phy::McsIndex m = 0; m < n_mcs; ++m) {
    // SNR/noise/PDP/ToF/CSI are MCS-independent; keep MCS 0's. The other
    // MCSs are rate-only observations, which draw the same words.
    phy::PhyObservation obs =
        m == 0 ? trace_sampler_.observe(link, tx_beam, rx_beam, m, rng)
               : trace_sampler_.observe_rate(link, tx_beam, rx_beam, m, rng);
    t.throughput_mbps[static_cast<std::size_t>(m)] = obs.throughput_mbps;
    t.cdr[static_cast<std::size_t>(m)] = obs.cdr;
    if (m == 0) {
      t.snr_db = obs.snr_db;
      t.noise_dbm = obs.noise_dbm;
      t.tof_ns = obs.tof_ns;
      t.pdp = std::move(obs.pdp);
      t.csi = std::move(obs.csi);
    }
  }
  return t;
}

double TraceCollector::calibrate_interferer_eirp(
    channel::Link& link, array::BeamId tx_beam, array::BeamId rx_beam,
    phy::McsIndex mcs, geom::Vec2 interferer_pos, double target_drop) const {
  link.set_interferer(std::nullopt);
  const double baseline =
      error_model_->expected_throughput_mbps(mcs, link.snr_db(tx_beam, rx_beam));
  const double target = baseline * (1.0 - target_drop);
  double lo = -30.0, hi = 70.0;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = (lo + hi) / 2.0;
    link.set_interferer(channel::Interferer{interferer_pos, mid});
    const double tput = error_model_->expected_throughput_mbps(
        mcs, link.snr_db(tx_beam, rx_beam));
    if (tput > target) {
      lo = mid;  // not enough interference yet
    } else {
      hi = mid;
    }
  }
  link.set_interferer(std::nullopt);
  return (lo + hi) / 2.0;
}

CaseRecord TraceCollector::collect(env::Environment& environment, const Case& c,
                                   util::Rng& rng) const {
  OBS_SPAN("collect.case");
  static obs::Counter& cases_counter =
      obs::Registry::global().counter("collect.cases");
  cases_counter.inc();
  CaseRecord rec;
  rec.impairment = c.impairment;
  rec.env_name = c.env_name;
  rec.position_id = c.position_id;
  rec.angular_displacement =
      c.impairment == Impairment::kDisplacement &&
      geom::distance(c.initial.rx.position, c.next.rx.position) < 1e-9;

  const array::Codebook codebook;  // SiBeam-style default for both ends
  array::PhasedArray tx(c.tx.position, c.tx.boresight_deg, &codebook);
  array::PhasedArray rx(c.initial.rx.position, c.initial.rx.boresight_deg,
                        &codebook);
  channel::Link link(&environment, &tx, &rx);

  // --- Initial state ---
  apply_state(environment, link, c.initial, 0.0);
  const mac::SweepResult init_sweep =
      trainer_.exhaustive(link, sweep_sampler_, rng);
  rec.init_best = measure_pair(link, init_sweep.tx_beam, init_sweep.rx_beam,
                               rng);
  rec.init_mcs = rec.init_best.best_mcs();

  // Failover pair (MOCA-style): the best pair whose Tx sector is at least
  // kFailoverMinSectorGap away from the primary's, or (0, 0) when no
  // pair qualifies.
  {
    const mac::SweepResult fo = trainer_.exhaustive_apart_from(
        link, sweep_sampler_, rng, init_sweep.tx_beam,
        kFailoverMinSectorGap);
    const bool found = fo.rx_beam != array::kQuasiOmni;
    rec.init_failover =
        measure_pair(link, fo.tx_beam, found ? fo.rx_beam : 0, rng);
  }

  // --- Interferer calibration: the EIRP is set so that a burst through the
  // operating pair suppresses (nearly) all codewords; the burst duty cycle
  // then realizes the level's average throughput drop (Sec. 4.2).
  if (c.next.interferer_position) {
    rec.interferer_eirp_dbm = calibrate_interferer_eirp(
        link, rec.init_best.tx_beam, rec.init_best.rx_beam, rec.init_mcs,
        *c.next.interferer_position, /*target_drop=*/0.98);
  }

  // --- New (impaired) state ---
  apply_state(environment, link, c.next, rec.interferer_eirp_dbm);
  rec.new_at_init_pair =
      measure_pair(link, rec.init_best.tx_beam, rec.init_best.rx_beam, rng);
  rec.new_at_failover = measure_pair(link, rec.init_failover.tx_beam,
                                     rec.init_failover.rx_beam, rng);
  const mac::SweepResult new_sweep =
      trainer_.exhaustive(link, sweep_sampler_, rng);
  rec.new_best = measure_pair(link, new_sweep.tx_beam, new_sweep.rx_beam, rng);

  environment.clear_blockers();
  return rec;
}

CaseRecord TraceCollector::collect_na(env::Environment& environment,
                                      const Case& c, util::Rng& rng) const {
  CaseRecord rec;
  rec.impairment = c.impairment;
  rec.env_name = c.env_name;
  rec.position_id = c.position_id;
  rec.forced_na = true;

  const array::Codebook codebook;
  array::PhasedArray tx(c.tx.position, c.tx.boresight_deg, &codebook);
  array::PhasedArray rx(c.next.rx.position, c.next.rx.boresight_deg, &codebook);
  channel::Link link(&environment, &tx, &rx);

  // The steady state here is the case's *new* state: the link has already
  // adapted (best pair, best MCS) and we observe two consecutive windows.
  double eirp = 0.0;
  if (c.next.interferer_position) {
    apply_state(environment, link, c.next, 0.0);
    const mac::SweepResult pre = trainer_.exhaustive(link, sweep_sampler_, rng);
    eirp = calibrate_interferer_eirp(link, pre.tx_beam, pre.rx_beam, 0,
                                     *c.next.interferer_position,
                                     /*target_drop=*/0.98);
  }
  apply_state(environment, link, c.next, eirp);
  const mac::SweepResult sweep = trainer_.exhaustive(link, sweep_sampler_, rng);
  rec.init_best = measure_pair(link, sweep.tx_beam, sweep.rx_beam, rng);
  rec.init_mcs = rec.init_best.best_mcs();
  // Second window at the same state, same pair.
  rec.new_at_init_pair =
      measure_pair(link, sweep.tx_beam, sweep.rx_beam, rng);
  rec.new_best = rec.new_at_init_pair;
  rec.init_failover = rec.init_best;
  rec.new_at_failover = rec.new_at_init_pair;

  environment.clear_blockers();
  return rec;
}

}  // namespace libra::trace
