// Trace-based simulation of one link-impairment event (Sec. 8.1-8.2).
//
// At t=0 the link state changes from a case's initial state to its impaired
// state. The device is transmitting aggregated frames (one per FAT) through
// the initial best pair at the initial best MCS. Each strategy then reacts:
//
//   RA First / BA First - trigger their mechanism when the current MCS stops
//     being a working MCS (Sec. 8.1);
//   LiBRA - per-frame: a missing Block ACK triggers the no-ACK rule; every
//     other frame with ACKs the 3-class classifier decides BA / RA / NA;
//   oracles - evaluate all three plays (NA, RA-then-maybe-BA, BA-then-RA)
//     and pick the best for their metric.
//
// Throughput during every frame comes from the collected traces (per pair
// and per MCS); BA costs ba_overhead_ms of silence; each RA probe costs one
// FAT at the probed MCS's trace throughput. After settling, all strategies
// run the same periodic upward probing (Sec. 8.1 "all algorithms use the
// same mechanism as LiBRA to probe higher rates").
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "core/classifier.h"
#include "core/rate_adaptation.h"
#include "core/strategy.h"
#include "mac/timing.h"
#include "trace/dataset.h"

namespace libra::sim {

enum class PairSel { kInitPair, kBestPair, kFailoverPair };

// Periodic beam refresh during steady operation (802.11ad devices re-train
// on beacon-interval timescales, ~100 ms); lets a device that escaped to a
// reflection migrate back to the LOS pair once an impairment clears.
inline constexpr double kBeamRefreshIntervalMs = 100.0;

struct EventParams {
  double fat_ms = 10.0;
  double ba_overhead_ms = 5.0;
  double flow_ms = 1000.0;

  // The refresh interval never drops below 4x the sweep cost, so expensive
  // beam training is refreshed proportionally less often.
  double effective_refresh_interval_ms() const {
    return std::max(kBeamRefreshIntervalMs, 4.0 * ba_overhead_ms);
  }
};

struct EventResult {
  double bytes_mb = 0.0;
  // Time from the impairment until the first working MCS is in use; 0 when
  // the link never broke (initial MCS still working).
  double recovery_delay_ms = 0.0;
  bool link_restored = true;
  PairSel settled_pair = PairSel::kInitPair;
  phy::McsIndex settled_mcs = 0;
  // Piecewise-constant throughput timeline (Mbps, duration ms), recorded
  // when requested (used by the VR application study, Sec. 8.4).
  std::vector<std::pair<double, double>> tput_segments;
};

class EventSimulator {
 public:
  // The classifier is required only for Strategy::kLibra.
  explicit EventSimulator(const core::LibraClassifier* classifier = nullptr);

  EventResult run(const trace::CaseRecord& rec, core::Strategy strategy,
                  const EventParams& params, util::Rng& rng,
                  bool record_series = false) const;

  // Force a specific first action (used by episode-aware oracles that look
  // beyond the event itself). `lead_frames` frames are transmitted at the
  // pre-impairment configuration before the action fires; every strategy
  // pays at least one such frame of detection latency.
  EventResult play_action(const trace::CaseRecord& rec, trace::Action action,
                          int lead_frames, const EventParams& params,
                          bool record_series = false) const {
    return play(rec, action, lead_frames, params, record_series);
  }

 private:
  EventResult play(const trace::CaseRecord& rec, trace::Action action,
                   int lead_frames, const EventParams& params,
                   bool record_series) const;
  EventResult run_libra(const trace::CaseRecord& rec, const EventParams& params,
                        util::Rng& rng, bool record_series) const;

  const core::LibraClassifier* classifier_;  // non-owning
};

}  // namespace libra::sim
