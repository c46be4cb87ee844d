#include "sim/vr.h"

#include <cmath>
#include <numbers>

namespace libra::sim {

std::vector<double> generate_frame_sizes_mb(double duration_ms,
                                            util::Rng& rng) {
  const int n = static_cast<int>(duration_ms / 1000.0 * kVrFps);
  const double mean_mb = kVrBitrateMbps / 8.0 / kVrFps;  // Mb -> MB
  std::vector<double> sizes;
  sizes.reserve(static_cast<std::size_t>(n));
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  // Normalize so the average rate stays at the configured bitrate: spread
  // the I-frame boost across the GOP.
  const double gop_norm =
      static_cast<double>(kVrGopFrames) / (kVrGopFrames - 1 + kVrIframeBoost);
  for (int i = 0; i < n; ++i) {
    const double swing =
        1.0 + kVrSceneSwing *
                  std::sin(phase + 2.0 * std::numbers::pi * i / (kVrFps * 4.0));
    const double iframe = (i % kVrGopFrames == 0) ? kVrIframeBoost : 1.0;
    const double jitter = std::exp(rng.gaussian(0.0, 0.05));
    sizes.push_back(mean_mb * swing * iframe * gop_norm * jitter);
  }
  return sizes;
}

VrResult play_vr(const std::vector<double>& frame_sizes_mb,
                 const std::vector<std::pair<double, double>>& tput_segments) {
  VrResult result;
  const double frame_interval_ms = 1000.0 / kVrFps;

  // Segment boundaries as absolute times, for random access by time.
  std::vector<double> seg_start(tput_segments.size() + 1, 0.0);
  for (std::size_t s = 0; s < tput_segments.size(); ++s) {
    seg_start[s + 1] = seg_start[s] + tput_segments[s].second;
  }

  // VR frames are rendered in real time: frame i cannot start transmitting
  // before its generation time i/fps. Playout allows one frame interval of
  // pipeline latency; a frame missing that deadline stalls playback, and
  // playback resumes shifted by the accumulated stall.
  std::size_t seg = 0;
  double now_ms = 0.0;
  double playhead_delay_ms = 0.0;

  for (std::size_t i = 0; i < frame_sizes_mb.size(); ++i) {
    const double gen_ms = static_cast<double>(i) * frame_interval_ms;
    now_ms = std::max(now_ms, gen_ms);
    double remaining_mb = frame_sizes_mb[i];
    while (remaining_mb > 1e-12) {
      while (seg < tput_segments.size() && seg_start[seg + 1] <= now_ms) {
        ++seg;
      }
      if (seg >= tput_segments.size()) break;  // timeline exhausted
      const double rate_mb_per_ms =
          tput_segments[seg].first * kVrCotsScale / 8000.0;
      const double seg_left_ms = seg_start[seg + 1] - now_ms;
      const double deliverable = rate_mb_per_ms * seg_left_ms;
      if (deliverable >= remaining_mb && rate_mb_per_ms > 0) {
        now_ms += remaining_mb / rate_mb_per_ms;
        remaining_mb = 0.0;
      } else {
        remaining_mb -= deliverable;
        now_ms = seg_start[seg + 1];
        ++seg;
      }
    }
    if (remaining_mb > 1e-12) break;  // never arrives: stop accounting here
    const double deadline_ms =
        gen_ms + frame_interval_ms + playhead_delay_ms;
    if (now_ms > deadline_ms) {
      const double stall = now_ms - deadline_ms;
      result.total_stall_ms += stall;
      ++result.stalls;
      playhead_delay_ms += stall;
    }
  }
  result.avg_stall_ms =
      result.stalls > 0 ? result.total_stall_ms / result.stalls : 0.0;
  return result;
}

}  // namespace libra::sim
