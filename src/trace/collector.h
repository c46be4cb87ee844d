// Trace collection (Sec. 5.1).
//
// At each state the collector performs an exhaustive 625-pair sector sweep
// (the naive O(N^2) BA), selects the highest-SNR beam pair, and records 1-s
// PHY traces (SNR, noise, PDP, CDR) plus MAC throughput for each of the 9
// MCSs. For new states it additionally records the same traces through the
// beam pair that was best at the initial state -- that pair is what the
// transmitter is actually using when the impairment hits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "channel/link.h"
#include "mac/beam_training.h"
#include "phy/sampler.h"
#include "trace/scenario.h"
#include "util/rng.h"

namespace libra::trace {

// 1-s averaged measurements of one beam pair at one state.
struct PairTrace {
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = 0;
  double snr_db = 0.0;
  double noise_dbm = 0.0;
  std::optional<double> tof_ns;
  std::vector<double> pdp;
  std::vector<double> csi;
  std::vector<double> throughput_mbps;  // indexed by MCS
  std::vector<double> cdr;              // indexed by MCS

  // Whether MCS m (an index into cdr and throughput_mbps) works on this
  // pair: trace::is_working() of its CDR and throughput.
  bool works_at(phy::McsIndex m) const;
  // Highest-throughput MCS among working ones (works_at, Sec. 5.2); falls
  // back to the overall argmax when nothing works.
  phy::McsIndex best_mcs() const;
};

// One frame of an up-prober (core::UpProber) replayed on a trace: the
// prober's current MCS and the next one up, clamped at the top MCS, give
// on_frame the CDR and throughput it reads. Returns the MCS the frame is
// sent at. A template over the prober so that trace does not depend on
// core.
template <typename Prober>
phy::McsIndex up_probe_frame(Prober& prober, const PairTrace& t) {
  const std::size_t top = t.throughput_mbps.size() - 1;
  const auto c = static_cast<std::size_t>(prober.current());
  const std::size_t up = std::min(c + 1, top);
  return prober.on_frame(static_cast<phy::McsIndex>(top), t.cdr[c],
                         t.throughput_mbps[c], t.cdr[up],
                         t.throughput_mbps[up]);
}

// One collected dataset case: the initial state plus the impaired state.
struct CaseRecord {
  Impairment impairment = Impairment::kDisplacement;
  std::string env_name;
  std::string position_id;
  PairTrace init_best;          // initial state, its best pair
  phy::McsIndex init_mcs = 0;   // highest-throughput MCS at the initial state
  PairTrace new_at_init_pair;   // impaired state, the initial best pair
  PairTrace new_best;           // impaired state, its own best pair
  // MOCA-style failover sector ([24]): the best pair whose Tx sector is
  // angularly diverse from the primary, measured at both states -- lets the
  // evaluation include a beam-sounding baseline.
  PairTrace init_failover;      // initial state, the failover pair
  PairTrace new_at_failover;    // impaired state, the failover pair
  double interferer_eirp_dbm = 0.0;  // calibrated (interference cases only)
  bool forced_na = false;       // same-state augmentation entry (Sec. 7)
  // Displacement sub-type: true when the Rx rotated in place (angular
  // displacement), false for linear moves and the other impairments. Used
  // by the beam-sounding analysis ([24] fails under angular displacement).
  bool angular_displacement = false;
};

struct CollectorConfig {
  // Number of frames averaged into one trace (1 s of 10 ms X60 frames);
  // jitter of averaged quantities shrinks by sqrt(frames). TraceCollector
  // throws std::invalid_argument unless it is >= 1.
  int frames_per_trace = 100;
};

class TraceCollector {
 public:
  TraceCollector(const phy::ErrorModel* error_model, CollectorConfig cfg = {});

  // Collect one case. The environment object is mutated (blockers) during
  // collection and restored before returning.
  CaseRecord collect(env::Environment& environment, const Case& c,
                     util::Rng& rng) const;

  // Same-state "No Adaptation" record for the 3-class model (Sec. 7): two
  // consecutive windows at the case's new state with its best pair.
  CaseRecord collect_na(env::Environment& environment, const Case& c,
                        util::Rng& rng) const;

  const CollectorConfig& config() const { return cfg_; }

  // Calibrate an interferer's EIRP so the expected throughput at (pair, mcs)
  // drops by `target_drop` relative to the interference-free value.
  double calibrate_interferer_eirp(channel::Link& link, array::BeamId tx_beam,
                                   array::BeamId rx_beam, phy::McsIndex mcs,
                                   geom::Vec2 interferer_pos,
                                   double target_drop) const;

 private:
  PairTrace measure_pair(const channel::Link& link, array::BeamId tx_beam,
                         array::BeamId rx_beam, util::Rng& rng) const;

  const phy::ErrorModel* error_model_;  // non-owning
  CollectorConfig cfg_;
  phy::PhySampler sweep_sampler_;   // per-probe jitter (sector sweeps)
  phy::PhySampler trace_sampler_;   // 1-s averaged jitter (traces)
  mac::BeamTrainer trainer_;
};

}  // namespace libra::trace
