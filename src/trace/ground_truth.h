// Ground-truth labeling (Sec. 5.2).
//
// Given a collected case and a protocol parameterization, "simulate" both
// adaptation mechanisms from the logged traces:
//
//   RA alone : probe MCSs downward from the initial MCS on the *initial*
//              beam pair; Th(RA) is the best throughput among MCSs <= the
//              initial MCS on that pair.
//   BA first : pay the sector-sweep overhead, then RA on the *new best*
//              pair starting from the initial MCS; Th(BA) is the best
//              throughput among MCSs <= the initial MCS on the new pair
//              (BA is always followed by RA, per the RA/BA subtleties).
//
// The winner optimizes the utility U = a*Th/Thmax + (1-a)*(1 - D/Dmax) of
// Eqn. (1). The recovery delay D counts one aggregated frame (FAT) per
// probed MCS plus the BA overhead where applicable; Dmax is the worst case
// (full RA sweep + BA + full RA sweep).
#pragma once

#include "mac/timing.h"
#include "trace/collector.h"

namespace libra::trace {

enum class Action { kRA, kBA, kNA };
std::string to_string(Action a);

// The working-MCS rule (Sec. 5.2): an MCS works when its CDR exceeds 10% and
// its throughput exceeds 150 Mbps. Every labeler, RA walk, up-prober and
// outage counter asks is_working() (on a trace, PairTrace::works_at()); a
// caller that sees only a frame's goodput (an ACKed frame, no CDR) compares
// against kWorkingMinTputMbps.
inline constexpr double kWorkingMinCdr = 0.10;
inline constexpr double kWorkingMinTputMbps = 150.0;

constexpr bool is_working(double cdr, double tput_mbps) {
  return cdr > kWorkingMinCdr && tput_mbps > kWorkingMinTputMbps;
}

// Algorithm 1's RA descent (Sec. 7), one probe at a time: offer the MCSs
// from the entry MCS downward, each with its CDR and throughput. It keeps
// the first working MCS offered and the highest-throughput working one
// (ties keep the earlier, higher MCS), and offer() returns true once the
// walk should stop: a working MCS is known and this probe delivers less
// than it (below the knee the ladder only falls). A NaN throughput never
// works and never stops the walk. The RA repair walk, the live controller's
// walk and association, and the labeler all descend through this one rule.
struct RaDescent {
  phy::McsIndex first = -1;  // first working MCS offered; -1 if none yet
  phy::McsIndex best = -1;   // highest-throughput working MCS; -1 if none
  double best_tput = -1.0;   // its throughput

  bool offer(phy::McsIndex m, double cdr, double tput_mbps) {
    if (is_working(cdr, tput_mbps)) {
      if (first < 0) first = m;
      if (tput_mbps > best_tput) {
        best_tput = tput_mbps;
        best = m;
      }
    }
    return best >= 0 && tput_mbps < best_tput;
  }
};

// The protocol parameterization a case is labeled under (the CLI's --alpha,
// --fat and --ba), and the FAT and BA overhead an event simulation replays
// (sim::EventSimulator). label_case() validates it.
struct GroundTruthConfig {
  double alpha = 1.0;           // Sec. 5/6 use alpha=1 (throughput only)
  double fat_ms = 10.0;         // frame aggregation time (one RA probe)
  double ba_overhead_ms = 5.0;  // sector sweep duration

  bool operator==(const GroundTruthConfig&) const = default;
};

struct GroundTruth {
  Action label = Action::kRA;        // 2-class (BA vs RA) decision
  Action label3 = Action::kRA;       // 3-class (BA / RA / NA) decision
  double th_ra_mbps = 0.0;
  double th_ba_mbps = 0.0;
  double delay_ra_ms = 0.0;
  double delay_ba_ms = 0.0;
  double utility_ra = 0.0;
  double utility_ba = 0.0;
};

// Throws std::invalid_argument naming the first field outside its range:
// alpha in [0, 1], fat_ms finite and > 0, ba_overhead_ms finite and >= 0.
void validate(const GroundTruthConfig& cfg);

GroundTruth label_case(const CaseRecord& rec, const GroundTruthConfig& cfg);

}  // namespace libra::trace
