#include "core/rate_adaptation.h"

#include <algorithm>

namespace libra::core {

RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs) {
  RaWalk walk;
  trace::RaDescent descent;
  for (phy::McsIndex m = start_mcs; m >= 0; --m) {
    walk.probes.push_back(m);
    const auto i = static_cast<std::size_t>(m);
    // The stop rule needs no "m below the best" clause: on the probe that
    // sets the best, its throughput equals best_tput and is not below it.
    if (descent.offer(m, t.cdr[i], t.throughput_mbps[i])) break;
  }
  walk.settled = descent.best;
  walk.first_working_probe =
      descent.first >= 0 ? static_cast<int>(start_mcs - descent.first) : -1;
  return walk;
}

UpProber::UpProber(phy::McsIndex current)
    : current_(current), timer_(kUpProbeT0Frames) {}

void UpProber::reset(phy::McsIndex current) {
  current_ = current;
  timer_ = kUpProbeT0Frames;
  failed_probes_ = 0;
}

phy::McsIndex UpProber::on_frame(phy::McsIndex max_mcs, double cdr,
                                 double tput_mbps, double up_cdr,
                                 double up_tput_mbps) {
  if (current_ >= max_mcs) return current_;
  if (cdr < kUpProbeMinCdr) {
    // Link not healthy enough to explore upward; hold.
    timer_ = kUpProbeT0Frames;
    return current_;
  }
  if (--timer_ > 0) return current_;

  // Probe frame at the next higher MCS.
  const phy::McsIndex probe = current_ + 1;
  const bool better =
      trace::is_working(up_cdr, up_tput_mbps) && up_tput_mbps > tput_mbps;
  if (better) {
    current_ = probe;
    failed_probes_ = 0;
    timer_ = kUpProbeT0Frames;
  } else {
    failed_probes_ = std::min(failed_probes_ + 1, kUpProbeMaxBackoffExponent);
    timer_ = kUpProbeT0Frames * (1 << failed_probes_);
  }
  return probe;  // the probe frame itself is sent at the probed MCS
}

}  // namespace libra::core
