// Beam adaptation (BA) algorithms (Sec. 2):
//
//   exhaustive    - naive O(N^2): every Tx x Rx beam pair is measured. This
//                   is what the dataset collection uses to find the ground-
//                   truth best pair (Sec. 5.1). The simulation returns the
//                   same pair, SNR and Rng stream as measuring every pair,
//                   but evaluates the channel exactly only for pairs whose
//                   upper bound could still win (docs/architecture.md,
//                   "Sweep kernel"); the airtime is still N^2 probes.
//   sls_80211ad   - O(N): Tx sector sweep with quasi-omni reception, then Rx
//                   sweep with quasi-omni transmission (standard SLS).
//   sls_tx_only   - O(N)/2: COTS devices only train the Tx beam and always
//                   receive quasi-omni.
//
// Each returns the selected pair, its SNR, the number of probe measurements
// and the sweep airtime (per-probe time x probes).
#pragma once

#include "array/codebook.h"
#include "channel/link.h"
#include "phy/sampler.h"
#include "util/rng.h"

namespace libra::mac {

struct SweepResult {
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = array::kQuasiOmni;
  double snr_db = 0.0;
  int measurements = 0;
  double duration_ms = 0.0;
};

struct BeamTrainerConfig {
  // Airtime per probe (one SSW frame + turnaround). 802.11ad SSW frames are
  // ~15 us plus SBIFS; X60 uses one 100 us slot per measurement.
  double probe_us = 20.0;
};

class BeamTrainer {
 public:
  // Throws std::invalid_argument unless probe_us is finite and > 0.
  explicit BeamTrainer(BeamTrainerConfig cfg = {});

  // Probes every pair in tb-major order, one PhySampler::measure_snr_db
  // each, and returns the first pair with the highest SNR (strict >). It
  // draws every probe's jitter up front, in that order, then evaluates
  // exactly only the pair with the highest bound and the pairs whose bound
  // reaches its SNR or the best so far. Counts the probes and the exact
  // evaluations in obs counters mac.sweep.pairs and mac.sweep.exact_pairs.
  SweepResult exhaustive(const channel::Link& link,
                         const phy::PhySampler& sampler, util::Rng& rng) const;

  // exhaustive() over only the Tx beams at least `min_tx_gap` sectors from
  // `primary_tx` (all of them when min_tx_gap <= 0): the MOCA-style
  // failover pair of the trace collector. Probes, draws and the tie rule
  // are exhaustive()'s over that subset; with no swept pair it returns a
  // default SweepResult (rx_beam kQuasiOmni) with no measurements.
  SweepResult exhaustive_apart_from(const channel::Link& link,
                                    const phy::PhySampler& sampler,
                                    util::Rng& rng, array::BeamId primary_tx,
                                    int min_tx_gap) const;

  SweepResult sls_80211ad(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng) const;

  SweepResult sls_tx_only(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng) const;

  // Coarse-to-fine two-level search (overhead-reduction family of Sec. 2
  // [11, 28, 31, 43, 54, 57, 70]): probe every `stride`-th beam pair on a
  // coarse grid, then exhaustively refine within +-`radius` beams of the
  // coarse winner. With 25 beams, stride 5 and radius 2 this needs 5x5 +
  // 5x5 = 50 probes instead of 625 -- it can miss the optimum when the
  // coarse grid straddles a narrow feature, which the ba_algorithms bench
  // quantifies. Throws std::invalid_argument, before any probe, unless
  // stride >= 1 and radius >= 0.
  SweepResult coarse_fine(const channel::Link& link,
                          const phy::PhySampler& sampler, util::Rng& rng,
                          int stride = 5, int radius = 2) const;

  const BeamTrainerConfig& config() const { return cfg_; }

 private:
  BeamTrainerConfig cfg_;
};

}  // namespace libra::mac
