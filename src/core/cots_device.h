// COTS 802.11ad device heuristic model (Sec. 3).
//
// Emulates what the Talon router / Acer laptop / ROG phone firmware does:
// transmit AMPDUs at the current MCS through the current Tx sector with
// quasi-omni reception; on a missing Block ACK, lower the MCS (RA); when
// even the lowest MCS fails, run a Tx-only sector sweep (BA) and start over.
// Sector probes during the sweep are single noisy measurements, which is
// what makes these devices flap between near-tied sectors and lose
// throughput even in static scenarios (Figs. 1-3).
#pragma once

#include <vector>

#include "channel/link.h"
#include "mac/ack.h"
#include "mac/beam_training.h"
#include "phy/sampler.h"

namespace libra::core {

// The vendor knobs the motivation benches vary; the rest of the firmware
// model is fixed (cots_device.cpp).
struct CotsDeviceConfig {
  // Vendor heterogeneity: 0 = trigger BA only after MCS 0 fails (the
  // Talon/laptop "RA first, BA last resort" heuristic); N > 0 = trigger BA
  // after N consecutive missing Block ACKs (the trigger-happy phone
  // behavior behind the 100+ sweeps per minute in Fig. 1a). Must be >= 0.
  int ba_after_ack_losses = 0;
  // Second trigger-happy path: fire BA when the in-AMPDU delivery ratio
  // (SFER) stays below this for 3 consecutive frames, even though the
  // Block ACK itself arrives. 0 disables. Combined with the blind upward
  // probing this is what makes phones sweep in perfectly static scenarios.
  // Must be finite and in [0, 1].
  double ba_cdr_threshold = 0.0;
};

struct CotsFrameLog {
  double t_ms = 0.0;
  array::BeamId tx_sector = 0;
  phy::McsIndex mcs = 0;
  double throughput_mbps = 0.0;
  bool ack = true;
  bool ba_triggered = false;
};

class CotsDevice {
 public:
  // Throws std::invalid_argument on a null dependency or a config field
  // out of its range (a negative or NaN value would silently turn its
  // trigger off).
  CotsDevice(channel::Link* link, const phy::ErrorModel* error_model,
             CotsDeviceConfig cfg = {});

  // Initial association: sweep sectors and pick the best.
  void associate(util::Rng& rng);

  // Transmit one AMPDU and run the adaptation heuristic; returns the log
  // entry for this frame.
  CotsFrameLog step(util::Rng& rng);

  array::BeamId tx_sector() const { return tx_sector_; }
  void lock_sector(array::BeamId sector);  // disables BA and pins the sector
  phy::McsIndex mcs() const { return mcs_; }
  double time_ms() const { return t_ms_; }

 private:
  double effective_snr(util::Rng& rng);
  void run_sector_sweep(util::Rng& rng);

  channel::Link* link_;                 // non-owning
  const phy::ErrorModel* error_model_;  // non-owning
  CotsDeviceConfig cfg_;
  mac::AckModel ack_model_;
  bool ba_enabled_ = true;  // lock_sector() turns BA off
  array::BeamId tx_sector_ = 0;
  phy::McsIndex mcs_ = 0;
  double fade_db_ = 0.0;
  double t_ms_ = 0.0;
  int frames_since_up_probe_ = 0;
  int consecutive_ack_losses_ = 0;
  int low_cdr_frames_ = 0;
};

}  // namespace libra::core
