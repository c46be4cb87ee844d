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

inline constexpr double kVrFps = 60.0;
inline constexpr double kVrBitrateMbps = 1200.0;  // 8K VR demand (Sec. 8.4)
// Frame-size modulation: slow scene-motion swing and I-frame spikes.
inline constexpr double kVrSceneSwing = 0.25;  // +-25% slow modulation
inline constexpr double kVrIframeBoost = 1.8;  // I-frames are ~1.8x the mean
inline constexpr int kVrGopFrames = 30;
// COTS 802.11ad tops out around 2.4 Gbps; scale the trace throughputs.
inline constexpr double kVrCotsScale = 2400.0 / 4750.0;
static_assert(kVrFps > 0.0 && kVrBitrateMbps > 0.0 && kVrIframeBoost > 0.0 &&
              kVrCotsScale > 0.0);
static_assert(kVrSceneSwing >= 0.0 && kVrSceneSwing < 1.0);
static_assert(kVrGopFrames >= 1);

// Synthetic frame sizes (MB) for a scene of the given duration.
std::vector<double> generate_frame_sizes_mb(double duration_ms,
                                            util::Rng& rng);

struct VrResult {
  double total_stall_ms = 0.0;
  int stalls = 0;
  double avg_stall_ms = 0.0;
};

// Play the frame sequence over a piecewise-constant throughput timeline.
VrResult play_vr(const std::vector<double>& frame_sizes_mb,
                 const std::vector<std::pair<double, double>>& tput_segments);

}  // namespace libra::sim
