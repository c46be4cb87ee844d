// VR streaming application model (Sec. 8.4).
//
// 8K VR at 60 FPS with a bandwidth demand of ~1.2 Gbps, streamed over the
// link a strategy maintains through a mobility timeline. The paper uses a
// 30-s Viking Village scene; we generate a synthetic frame-size trace with
// the same statistics (scene-motion modulation + periodic I-frame spikes).
// Link throughputs are scaled down to what COTS 802.11ad devices achieve
// (up to ~2.4 Gbps) as the paper does.
//
// Playout: video frame i is due at i/60 s; a frame that has not fully
// arrived by its deadline stalls playback until it arrives. We report the
// average stall duration and the average number of stalls (Table 4).
#pragma once

#include <vector>

#include "sim/timeline.h"
#include "util/rng.h"

namespace libra::sim {

struct VrConfig {
  double fps = 60.0;
  double bitrate_mbps = 1200.0;  // 8K VR demand (Sec. 8.4)
  // Frame-size modulation: slow scene-motion swing and I-frame spikes.
  double scene_swing = 0.25;     // +-25% slow modulation
  double iframe_boost = 1.8;     // I-frames are ~1.8x the mean
  int gop_frames = 30;
  // COTS 802.11ad tops out around 2.4 Gbps; scale the trace throughputs.
  double cots_scale = 2400.0 / 4750.0;

  // Throws std::invalid_argument naming the field unless fps,
  // bitrate_mbps, iframe_boost and cots_scale are finite and > 0,
  // scene_swing is finite and in [0, 1) and gop_frames >= 1.
  void validate() const;
};

// Synthetic frame sizes (MB) for a scene of the given duration. Validates
// the config.
std::vector<double> generate_frame_sizes_mb(const VrConfig& cfg,
                                            double duration_ms,
                                            util::Rng& rng);

struct VrResult {
  double total_stall_ms = 0.0;
  int stalls = 0;
  double avg_stall_ms = 0.0;
};

// Play the frame sequence over a piecewise-constant throughput timeline.
// Validates the config.
VrResult play_vr(const std::vector<double>& frame_sizes_mb,
                 const std::vector<std::pair<double, double>>& tput_segments,
                 const VrConfig& cfg);

}  // namespace libra::sim
