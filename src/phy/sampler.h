// PHY measurement sampler: produces the per-trace observation record that
// X60 logs for every frame (Sec. 5.1): SNR, noise level, PDP, CDR and MAC
// throughput, averaged over a trace, with realistic measurement noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "array/codebook.h"
#include "channel/link.h"
#include "phy/error_model.h"
#include "phy/pdp.h"
#include "util/rng.h"

namespace libra::phy {

// What a deferred observation needs to compute its PDP, CSI and ToF later.
struct PendingPdp {
  // The beam pair's paths and their mW values, shared with the link's
  // channel memo, not copied.
  std::shared_ptr<const channel::PairChannel> channel;
  PdpConfig pdp;              // with the Rx beam's detection floor applied
  double tap_jitter = 0.0;    // SamplerConfig::pdp_tap_jitter
  std::uint64_t tap_key = 0;  // the word that keys the tap jitters
};

struct PhyObservation {
  double snr_db = 0.0;
  double noise_dbm = 0.0;                // measured noise level
  std::optional<double> tof_ns;          // nullopt = "infinity" (no signal)
  // Linear mW per tap. Rewrite a materialized PDP through edit_pdp(), so
  // the stored strongest tap goes with it.
  std::vector<double> pdp;
  std::vector<double> csi;               // |FFT(pdp)|
  double cdr = 0.0;                      // at the observed MCS
  double throughput_mbps = 0.0;          // MAC throughput at the observed MCS
  McsIndex mcs = 0;
  // Set by PhySampler::observe_deferred(): tof_ns, pdp, csi and the
  // strongest tap are not computed yet. Copies share the handle and
  // materialize to the same bits.
  std::shared_ptr<const PendingPdp> pending;

  bool deferred() const { return pending != nullptr; }
  // Compute tof_ns, pdp, csi and the strongest tap from the pending handle
  // and drop it; a no-op on an already materialized or rate-only
  // observation. One pass: synthesize_pdp() on the memo's per-path mW
  // values, the tap jitters from the keyed substream into per-thread
  // scratch with FirstMax tracking the strongest tap (stored, and the
  // ToF's), and the CSI written into csi (docs/architecture.md, "PDP
  // kernel: one pass, same bits"). Counts into phy.materializations.
  void materialize();
  // Materialize, apply `edit` to the PDP (it may rewrite or resize it) and
  // drop the stored strongest tap, so peak_tap() reads the edited PDP.
  template <typename Edit>
  void edit_pdp(Edit&& edit) {
    materialize();  // a pending PDP would later materialize unedited
    edit(pdp);
    pdp_peak_ = kNoPeak;
  }
  // The PDP's strongest tap, strongest_tap(pdp): the one materialize()
  // stored, else a scan (a hand-built PDP, or one edit_pdp() changed). A
  // stored tap is used only while it indexes the PDP.
  std::size_t peak_tap() const {
    return pdp_peak_ < pdp.size() ? pdp_peak_ : strongest_tap(pdp);
  }

 private:
  static constexpr std::size_t kNoPeak = static_cast<std::size_t>(-1);
  std::size_t pdp_peak_ = kNoPeak;  // strongest_tap(pdp), or kNoPeak
};

struct SamplerConfig {
  double snr_jitter_db = 0.4;      // trace-average SNR estimation error
  double noise_jitter_db = 1.5;    // X60 noise readings span a wide range
                                   // even without interference (Sec. 6.2)
  double pdp_tap_jitter = 0.08;    // multiplicative per-tap jitter (sigma)
  double cdr_jitter = 0.015;       // residual frame-level CDR variation
};

class PhySampler {
 public:
  // Throws std::invalid_argument on a null error model or an invalid
  // config: every jitter must be finite and > 0.
  PhySampler(const ErrorModel* error_model, SamplerConfig cfg = {});

  // Full observation of the link through a beam pair at an MCS:
  // observe_deferred() followed by materialize().
  PhyObservation observe(const channel::Link& link, array::BeamId tx_beam,
                         array::BeamId rx_beam, McsIndex mcs,
                         util::Rng& rng) const;

  // observe() with the PDP, the CSI and the ToF left pending until
  // PhyObservation::materialize(), for callers that rarely read them. It
  // consumes exactly observe()'s Rng draws.
  PhyObservation observe_deferred(const channel::Link& link,
                                  array::BeamId tx_beam,
                                  array::BeamId rx_beam, McsIndex mcs,
                                  util::Rng& rng) const;

  // Rate-only observation, for callers that read only the CDR and the
  // throughput (MCS probes). It consumes exactly observe()'s Rng draws and
  // equals it in snr_db, noise_dbm, cdr, throughput_mbps and mcs, but
  // skips the PDP, the ToF and the CSI (left empty / nullopt).
  PhyObservation observe_rate(const channel::Link& link,
                              array::BeamId tx_beam, array::BeamId rx_beam,
                              McsIndex mcs, util::Rng& rng) const;

  // Quick SNR-only measurement, as used during a sector sweep:
  // mean_snr_db() of the pair plus one snr_jitter_db() draw.
  double measure_snr_db(const channel::Link& link, array::BeamId tx_beam,
                        array::BeamId rx_beam, util::Rng& rng) const;
  // The measurement's mean: the clean and jammed SNRs averaged over the
  // interferer's duty cycle, from the pair's received power and the Rx
  // beam's noise floor (Link::rx_power_dbm(), Link::noise_floor_dbm()).
  // Monotone non-decreasing in rx_power_dbm (weights 1 - duty and duty are
  // >= 0), which the pruned sweep's bound relies on.
  double mean_snr_db(const channel::Link& link, double rx_power_dbm,
                     double noise_floor_dbm) const;
  // The measurement's jitter: one gaussian draw. It does not depend on the
  // channel, so a sweep can draw every probe's jitter before it evaluates
  // any pair.
  double snr_jitter_db(util::Rng& rng) const {
    return rng.gaussian(0.0, cfg_.snr_jitter_db);
  }

  const ErrorModel& error_model() const { return *error_model_; }

 private:
  // The one sampler body: observe_rate() skips the PDP, the CSI and the
  // ToF; observe_deferred() leaves them pending. Both draw the same words.
  PhyObservation sample(const channel::Link& link, array::BeamId tx_beam,
                        array::BeamId rx_beam, McsIndex mcs, util::Rng& rng,
                        bool with_pdp) const;

  const ErrorModel* error_model_;  // non-owning
  SamplerConfig cfg_;
};

}  // namespace libra::phy
