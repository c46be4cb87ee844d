#include "core/rate_adaptation.h"

#include <algorithm>
#include <climits>
#include <stdexcept>
#include <string>

namespace libra::core {

RaWalk ra_repair_walk(const trace::PairTrace& t, phy::McsIndex start_mcs,
                      const trace::GroundTruthConfig& rule) {
  RaWalk walk;
  double best_tput = -1.0;
  for (phy::McsIndex m = start_mcs; m >= 0; --m) {
    walk.probes.push_back(m);
    const auto i = static_cast<std::size_t>(m);
    const bool working = trace::is_working(t.cdr[i], t.throughput_mbps[i], rule);
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

double cdr_ori(const phy::McsTable& table, phy::McsIndex current) {
  if (current >= table.max_mcs()) return 1.0;  // nothing above to probe
  const double ratio =
      table.rate_mbps(current) / table.rate_mbps(current + 1);
  const double p_mtl = 1.0 - ratio;
  return 1.0 - p_mtl / 2.0;
}

UpProber::UpProber(phy::McsIndex current, UpProberConfig cfg)
    : cfg_(cfg), current_(current), timer_(cfg.t0_frames) {
  if (cfg_.t0_frames <= 0) {
    throw std::invalid_argument("UpProberConfig: t0_frames must be > 0, got " +
                                std::to_string(cfg_.t0_frames));
  }
  // on_frame() computes t0_frames * 2^k for k up to the exponent: the shift
  // must be defined and the product must fit an int.
  if (cfg_.max_backoff_exponent < 0 || cfg_.max_backoff_exponent > 30 ||
      cfg_.t0_frames > (INT_MAX >> cfg_.max_backoff_exponent)) {
    throw std::invalid_argument(
        "UpProberConfig: max_backoff_exponent must be in [0, 30] with "
        "t0_frames * 2^max_backoff_exponent <= INT_MAX, got " +
        std::to_string(cfg_.max_backoff_exponent));
  }
  if (!(cfg_.min_cdr_for_probe >= 0.0 && cfg_.min_cdr_for_probe <= 1.0)) {
    throw std::invalid_argument(
        "UpProberConfig: min_cdr_for_probe must be in [0, 1], got " +
        std::to_string(cfg_.min_cdr_for_probe));
  }
}

void UpProber::reset(phy::McsIndex current) {
  current_ = current;
  timer_ = cfg_.t0_frames;
  failed_probes_ = 0;
}

phy::McsIndex UpProber::on_frame(const trace::PairTrace& t,
                                 const trace::GroundTruthConfig& rule) {
  const auto max_mcs =
      static_cast<phy::McsIndex>(t.throughput_mbps.size()) - 1;
  if (current_ >= max_mcs) return current_;
  const auto cur = static_cast<std::size_t>(current_);
  const double gate = cfg_.table ? cdr_ori(*cfg_.table, current_)
                                 : cfg_.min_cdr_for_probe;
  if (t.cdr[cur] < gate) {
    // Link not healthy enough to explore upward; hold.
    timer_ = cfg_.t0_frames;
    return current_;
  }
  if (--timer_ > 0) return current_;

  // Probe frame at the next higher MCS.
  const phy::McsIndex probe = current_ + 1;
  const auto p = static_cast<std::size_t>(probe);
  const bool better =
      trace::is_working(t.cdr[p], t.throughput_mbps[p], rule) &&
      t.throughput_mbps[p] > t.throughput_mbps[cur];
  if (better) {
    current_ = probe;
    failed_probes_ = 0;
    timer_ = cfg_.t0_frames;
  } else {
    failed_probes_ = std::min(failed_probes_ + 1, cfg_.max_backoff_exponent);
    timer_ = cfg_.t0_frames * (1 << failed_probes_);
  }
  return probe;  // the probe frame itself is sent at the probed MCS
}

}  // namespace libra::core
