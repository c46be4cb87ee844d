#include "core/cots_device.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace libra::core {

namespace {
constexpr double kFrameMs = 10.0;  // one AMPDU per step
// Slow shadow-fading AR(1) process riding on the ray-traced SNR; COTS links
// see 1-2 dB of slow variation even when nothing moves.
constexpr double kFadeSigmaDb = 1.8;
constexpr double kFadeCorr = 0.95;
// Sweep probes are single SSW frames: noisy.
constexpr double kSweepJitterDb = 1.0;
constexpr double kSweepDurationMs = 2.0;
constexpr int kUpProbeIntervalFrames = 10;
// Consecutive low-CDR frames before the SFER path fires.
constexpr int kLowCdrFramesToBa = 3;
}  // namespace

CotsDevice::CotsDevice(channel::Link* link, const phy::ErrorModel* error_model,
                       CotsDeviceConfig cfg)
    : link_(link), error_model_(error_model), cfg_(cfg),
      ack_model_(error_model) {
  if (!link_ || !error_model_) throw std::invalid_argument("null dependency");
  if (cfg_.ba_after_ack_losses < 0) {
    throw std::invalid_argument(
        "CotsDeviceConfig: ba_after_ack_losses must be >= 0, got " +
        std::to_string(cfg_.ba_after_ack_losses));
  }
  if (!(cfg_.ba_cdr_threshold >= 0.0 && cfg_.ba_cdr_threshold <= 1.0)) {
    throw std::invalid_argument(
        "CotsDeviceConfig: ba_cdr_threshold must be in [0, 1], got " +
        std::to_string(cfg_.ba_cdr_threshold));
  }
}

double CotsDevice::effective_snr(util::Rng& rng) {
  fade_db_ = kFadeCorr * fade_db_ +
             std::sqrt(1.0 - kFadeCorr * kFadeCorr) *
                 rng.gaussian(0.0, kFadeSigmaDb);
  return link_->snr_db(tx_sector_, array::kQuasiOmni) + fade_db_;
}

void CotsDevice::run_sector_sweep(util::Rng& rng) {
  array::BeamId best = 0;
  double best_snr = -1e9;
  for (array::BeamId s = 0; s < link_->tx().codebook().size(); ++s) {
    const double snr = link_->snr_db(s, array::kQuasiOmni) + fade_db_ +
                       rng.gaussian(0.0, kSweepJitterDb);
    if (snr > best_snr) {
      best_snr = snr;
      best = s;
    }
  }
  tx_sector_ = best;
  // After beam training, firmware restarts the rate search from the most
  // robust MCS and climbs back up -- the ramp is the dominant cost of a
  // spurious sweep.
  mcs_ = 0;
  t_ms_ += kSweepDurationMs;
}

void CotsDevice::associate(util::Rng& rng) { run_sector_sweep(rng); }

void CotsDevice::lock_sector(array::BeamId sector) {
  tx_sector_ = sector;
  ba_enabled_ = false;
}

CotsFrameLog CotsDevice::step(util::Rng& rng) {
  CotsFrameLog log;
  log.t_ms = t_ms_;
  const double snr = effective_snr(rng);
  log.ack = ack_model_.ack_received(mcs_, snr, rng);
  if (log.ack) {
    consecutive_ack_losses_ = 0;
    log.throughput_mbps = error_model_->expected_throughput_mbps(mcs_, snr);
    // SFER-style reaction: the ACK arrived but most subframes are dying.
    // Trigger-happy firmware answers with a sector sweep (the wrong call in
    // static scenarios); with BA disabled the device sanely steps the MCS
    // down instead.
    const double cdr = error_model_->expected_cdr(mcs_, snr);
    if (cfg_.ba_cdr_threshold > 0.0 && cdr < cfg_.ba_cdr_threshold) {
      if (++low_cdr_frames_ >= kLowCdrFramesToBa) {
        low_cdr_frames_ = 0;
        if (ba_enabled_) {
          run_sector_sweep(rng);
          log.ba_triggered = true;
        } else if (mcs_ > 0) {
          --mcs_;
        }
      }
    } else {
      low_cdr_frames_ = 0;
    }
    // Periodic blind upward probe: COTS RA climbs whenever a single probe
    // frame at the next MCS is ACKed -- a Block ACK needs only one subframe
    // to decode, so devices overshoot the sustainable MCS and oscillate.
    if (!log.ba_triggered &&
        ++frames_since_up_probe_ >= kUpProbeIntervalFrames &&
        mcs_ < error_model_->table().max_mcs()) {
      frames_since_up_probe_ = 0;
      if (ack_model_.ack_received(mcs_ + 1, snr, rng)) ++mcs_;
    }
  } else {
    log.throughput_mbps = 0.0;
    ++consecutive_ack_losses_;
    const bool aggressive_ba =
        cfg_.ba_after_ack_losses > 0 &&
        consecutive_ack_losses_ >= cfg_.ba_after_ack_losses;
    // RA: drop the MCS; trigger BA when MCS 0 has already failed (the
    // "RA first, BA as last resort" heuristic) or, on trigger-happy
    // firmware, after a few consecutive ACK losses.
    if (ba_enabled_ && (aggressive_ba || mcs_ == 0)) {
      run_sector_sweep(rng);
      log.ba_triggered = true;
      consecutive_ack_losses_ = 0;
    } else if (mcs_ > 0) {
      --mcs_;
    }
    frames_since_up_probe_ = 0;
  }
  t_ms_ += kFrameMs;
  log.tx_sector = tx_sector_;
  log.mcs = mcs_;
  return log;
}

}  // namespace libra::core
