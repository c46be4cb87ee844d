// Frame-based rate adaptation (Sec. 7 "Adaptation algorithms", Algorithm 1).
//
// Repair walk: starting at the MCS in use, probe downward one aggregated
// frame per MCS until the highest-throughput working MCS is found. Upward
// exploration: after an interval of T frames with healthy CDR, probe the
// next higher MCS; failed probes back off the interval exponentially,
// T = T0 * min(2^k, 2^5), with T0 = 5 frames.
#pragma once

#include <climits>
#include <vector>

#include "trace/collector.h"
#include "trace/ground_truth.h"

namespace libra::core {

// Result of a downward RA repair walk over a trace.
struct RaWalk {
  // MCS probed at each frame of the walk, in order (starts at the entry
  // MCS, descends).
  std::vector<phy::McsIndex> probes;
  // The MCS the walk settles on (highest-throughput working MCS at or below
  // the entry MCS); -1 when no MCS works on this trace.
  phy::McsIndex settled = -1;
  // Index into `probes` of the first *working* MCS encountered; -1 if none.
  // The link-recovery delay stops counting here (Sec. 5.2).
  int first_working_probe = -1;
};

// Simulate the downward walk on the given per-MCS trace.
RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs);

// Upward probing's fixed parameters (Sec. 7): T0 = 5 frames, a 2^5 backoff
// cap, and a healthy-link CDR gate below which no probe is sent.
inline constexpr int kUpProbeT0Frames = 5;
inline constexpr int kUpProbeMaxBackoffExponent = 5;
inline constexpr double kUpProbeMinCdr = 0.9;
static_assert(kUpProbeT0Frames > 0);
static_assert(kUpProbeMaxBackoffExponent >= 0 &&
                  kUpProbeMaxBackoffExponent <= 30 &&
                  kUpProbeT0Frames <= (INT_MAX >> kUpProbeMaxBackoffExponent),
              "the backoff interval T0 * 2^k must fit an int");
static_assert(kUpProbeMinCdr >= 0.0 && kUpProbeMinCdr <= 1.0);

// Upward-probing state machine. Call on_frame() once per transmitted frame;
// it returns the MCS to use for that frame and internally advances the
// probe/backoff state based on what the pair in use delivers.
class UpProber {
 public:
  explicit UpProber(phy::McsIndex current);

  // Decide the MCS for the next frame. max_mcs is the ladder's top; cdr and
  // tput_mbps are what current() delivers, up_cdr and up_tput_mbps what
  // current() + 1 would. The latter two are read only on a probe frame and
  // never when current() >= max_mcs.
  phy::McsIndex on_frame(phy::McsIndex max_mcs, double cdr, double tput_mbps,
                         double up_cdr, double up_tput_mbps);

  phy::McsIndex current() const { return current_; }
  void reset(phy::McsIndex current);

 private:
  phy::McsIndex current_;
  int timer_;
  int failed_probes_ = 0;
};

}  // namespace libra::core
