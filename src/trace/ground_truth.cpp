#include "trace/ground_truth.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace libra::trace {

std::string to_string(Action a) {
  switch (a) {
    case Action::kRA: return "RA";
    case Action::kBA: return "BA";
    case Action::kNA: return "NA";
  }
  return "?";
}

namespace {

// "No Adaptation" rule for the 3-class labels (Sec. 7): the current MCS on
// the current pair still works and retains at least this fraction of the
// pre-impairment throughput.
constexpr double kNaTputFraction = 0.90;
// Indifference band for the BA-vs-RA utility comparison: when the two
// utilities are within this margin, RA wins ("perform RA when
// Th(RA) >= Th(BA)", Sec. 5.2) -- it avoids the sweep overhead and keeps
// measurement noise from creating unlearnable coin-flip labels.
constexpr double kTieTolerance = 0.02;

// Throws std::invalid_argument naming the first field of `cfg` outside its
// range. Without it, fat_ms = ba_overhead_ms = 0 makes Dmax 0, every utility
// 0/0 = NaN and every 2-class label silently BA.
void validate(const GroundTruthConfig& cfg) {
  const auto check = [](bool ok, const char* field, const char* range,
                        double value) {
    if (!ok) {
      char got[32];
      std::snprintf(got, sizeof got, "%g", value);
      throw std::invalid_argument(std::string("GroundTruthConfig: ") + field +
                                  " must be " + range + ", got " + got);
    }
  };
  check(cfg.alpha >= 0.0 && cfg.alpha <= 1.0, "alpha", "in [0, 1]",
        cfg.alpha);
  check(std::isfinite(cfg.fat_ms) && cfg.fat_ms > 0.0, "fat_ms",
        "finite and > 0", cfg.fat_ms);
  check(std::isfinite(cfg.ba_overhead_ms) && cfg.ba_overhead_ms >= 0.0,
        "ba_overhead_ms", "finite and >= 0", cfg.ba_overhead_ms);
}

// Best throughput among MCSs <= start on this trace.
double best_tput_upto(const PairTrace& t, phy::McsIndex start) {
  double best = 0.0;
  for (phy::McsIndex m = 0; m <= start; ++m) {
    best = std::max(best, t.throughput_mbps[static_cast<std::size_t>(m)]);
  }
  return best;
}

}  // namespace

GroundTruth label_case(const CaseRecord& rec, const GroundTruthConfig& cfg) {
  validate(cfg);
  GroundTruth gt;
  const phy::McsIndex m0 = rec.init_mcs;
  const int n_mcs = static_cast<int>(rec.init_best.throughput_mbps.size());
  const double th_max =
      *std::max_element(rec.init_best.throughput_mbps.begin(),
                        rec.init_best.throughput_mbps.end());
  const double d_max =
      mac::worst_case_delay_ms(n_mcs, cfg.fat_ms, cfg.ba_overhead_ms);

  // The link is restored at the first working MCS the RA descent from m0
  // meets on a trace (-1 if none); the descent records it before any stop.
  const auto first_working = [m0](const PairTrace& t) {
    RaDescent descent;
    for (phy::McsIndex m = m0; m >= 0; --m) {
      const auto i = static_cast<std::size_t>(m);
      if (descent.offer(m, t.cdr[i], t.throughput_mbps[i])) break;
    }
    return descent.first;
  };
  // RA on the new best pair, after a BA: its probes until one works, or all
  // m0 + 1 of them.
  const phy::McsIndex ba_first = first_working(rec.new_best);
  const double ra_after_ba_ms =
      ba_first >= 0 ? static_cast<double>(m0 - ba_first + 1) * cfg.fat_ms
                    : static_cast<double>(m0 + 1) * cfg.fat_ms;

  // --- RA alone: downward search on the initial pair at the new state. ---
  const phy::McsIndex ra_first = first_working(rec.new_at_init_pair);
  gt.th_ra_mbps = best_tput_upto(rec.new_at_init_pair, m0);
  if (ra_first >= 0) {
    gt.delay_ra_ms = static_cast<double>(m0 - ra_first + 1) * cfg.fat_ms;
  } else {
    // RA probes everything, fails, BA is performed, RA again on the new
    // pair (Sec. 5.2 Dmax discussion).
    gt.delay_ra_ms = static_cast<double>(m0 + 1) * cfg.fat_ms +
                     cfg.ba_overhead_ms + ra_after_ba_ms;
  }

  // --- BA first (always followed by RA on the new best pair). ---
  gt.th_ba_mbps = best_tput_upto(rec.new_best, m0);
  gt.delay_ba_ms = cfg.ba_overhead_ms + ra_after_ba_ms;

  gt.delay_ra_ms = std::min(gt.delay_ra_ms, d_max);
  gt.delay_ba_ms = std::min(gt.delay_ba_ms, d_max);

  const auto utility = [&](double th, double d) {
    return cfg.alpha * th / th_max + (1.0 - cfg.alpha) * (1.0 - d / d_max);
  };
  gt.utility_ra = utility(gt.th_ra_mbps, gt.delay_ra_ms);
  gt.utility_ba = utility(gt.th_ba_mbps, gt.delay_ba_ms);

  // Perform RA when U(RA) >= U(BA) (within the indifference band), BA
  // otherwise (Sec. 5.2).
  gt.label = gt.utility_ra >= gt.utility_ba - kTieTolerance
                 ? Action::kRA
                 : Action::kBA;

  // --- 3-class label: NA when the operating (pair, MCS) still delivers. ---
  const auto i0 = static_cast<std::size_t>(m0);
  const bool still_working =
      rec.new_at_init_pair.works_at(m0) &&
      rec.new_at_init_pair.throughput_mbps[i0] >=
          kNaTputFraction * rec.init_best.throughput_mbps[i0];
  gt.label3 = (rec.forced_na || still_working) ? Action::kNA : gt.label;
  return gt;
}

}  // namespace libra::trace
