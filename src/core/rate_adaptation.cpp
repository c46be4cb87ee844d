#include "core/rate_adaptation.h"

#include <algorithm>

namespace libra::core {

RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs) {
  RaWalk walk;
  double best_tput = -1.0;
  for (phy::McsIndex m = start_mcs; m >= 0; --m) {
    walk.probes.push_back(m);
    const auto i = static_cast<std::size_t>(m);
    const bool working = trace::is_working(t.cdr[i], t.throughput_mbps[i]);
    if (working && walk.first_working_probe < 0) {
      walk.first_working_probe = static_cast<int>(walk.probes.size()) - 1;
    }
    if (working && t.throughput_mbps[i] > best_tput) {
      best_tput = t.throughput_mbps[i];
      walk.settled = m;
    }
    // Algorithm 1 stops descending once the throughput of a working MCS
    // starts decreasing (the ladder is unimodal below the knee).
    if (walk.settled >= 0 && m < walk.settled &&
        t.throughput_mbps[i] < best_tput) {
      break;
    }
  }
  return walk;
}

UpProber::UpProber(phy::McsIndex current)
    : current_(current), timer_(kUpProbeT0Frames) {}

void UpProber::reset(phy::McsIndex current) {
  current_ = current;
  timer_ = kUpProbeT0Frames;
  failed_probes_ = 0;
}

phy::McsIndex UpProber::on_frame(const trace::PairTrace& t) {
  const auto max_mcs =
      static_cast<phy::McsIndex>(t.throughput_mbps.size()) - 1;
  if (current_ >= max_mcs) return current_;
  const auto cur = static_cast<std::size_t>(current_);
  if (t.cdr[cur] < kUpProbeMinCdr) {
    // Link not healthy enough to explore upward; hold.
    timer_ = kUpProbeT0Frames;
    return current_;
  }
  if (--timer_ > 0) return current_;

  // Probe frame at the next higher MCS.
  const phy::McsIndex probe = current_ + 1;
  const auto p = static_cast<std::size_t>(probe);
  const bool better =
      trace::is_working(t.cdr[p], t.throughput_mbps[p]) &&
      t.throughput_mbps[p] > t.throughput_mbps[cur];
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
