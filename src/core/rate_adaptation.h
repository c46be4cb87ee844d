// Frame-based rate adaptation (Sec. 7 "Adaptation algorithms", Algorithm 1).
//
// Repair walk: starting at the MCS in use, probe downward one aggregated
// frame per MCS until the highest-throughput working MCS is found. Upward
// exploration: after an interval of T frames with healthy CDR, probe the
// next higher MCS; failed probes back off the interval exponentially,
// T = T0 * min(2^k, 2^5), with T0 = 5 frames.
#pragma once

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
RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs,
                      const trace::GroundTruthConfig& rule);

// RRAA-style opportunistic probing threshold ([63], referenced by
// Algorithm 1 as CDR_ORI). Moving from MCS m to m+1 can pay off only if the
// extra rate outweighs the extra loss: the maximum tolerable loss ratio at
// m+1 is P_MTL = 1 - rate(m)/rate(m+1), and RRAA probes opportunistically
// when the current loss is below P_ORI = P_MTL / 2 -- i.e. when the current
// CDR exceeds cdr_ori = 1 - P_ORI.
double cdr_ori(const phy::McsTable& table, phy::McsIndex current);

struct UpProberConfig {
  int t0_frames = 5;   // minimum probing interval (Sec. 7)
  int max_backoff_exponent = 5;
  // Healthy-link gate for upward probes. When `table` is set, the RRAA
  // per-MCS threshold cdr_ori() overrides this constant.
  double min_cdr_for_probe = 0.9;
  const phy::McsTable* table = nullptr;  // non-owning, optional
};

// Upward-probing state machine. Call on_frame() once per transmitted frame;
// it returns the MCS to use for that frame and internally advances the
// probe/backoff state based on the trace the link currently follows.
class UpProber {
 public:
  // Throws std::invalid_argument unless t0_frames > 0, max_backoff_exponent
  // is in [0, 30] with t0_frames * 2^max_backoff_exponent in int range, and
  // min_cdr_for_probe is in [0, 1].
  UpProber(phy::McsIndex current, UpProberConfig cfg = {});

  // Decide the MCS for the next frame given the trace of the pair in use.
  phy::McsIndex on_frame(const trace::PairTrace& t,
                         const trace::GroundTruthConfig& rule);

  phy::McsIndex current() const { return current_; }
  void reset(phy::McsIndex current);

 private:
  UpProberConfig cfg_;
  phy::McsIndex current_;
  int timer_;
  int failed_probes_ = 0;
};

}  // namespace libra::core
