#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace libra::sim {

namespace {

using trace::Action;

// Shared frame-stepped accounting for one event.
class Engine {
 public:
  // The FAT comes from a validated GroundTruthConfig (> 0).
  Engine(const trace::CaseRecord& rec, double fat_ms, const EventParams& p,
         bool record)
      : rec_(rec), fat_ms_(fat_ms), p_(p), record_(record) {
    // A non-positive or infinite flow would march time backwards (or not
    // at all) or never end, and spin the frame loops forever.
    if (!(std::isfinite(p.flow_ms) && p.flow_ms > 0.0)) {
      throw std::invalid_argument(
          "EventParams: flow_ms must be finite and > 0, got " +
          std::to_string(p.flow_ms));
    }
    result_.settled_mcs = rec.init_mcs;
  }

  const trace::PairTrace& trace_for(PairSel pair) const {
    switch (pair) {
      case PairSel::kInitPair: return rec_.new_at_init_pair;
      case PairSel::kFailoverPair: return rec_.new_at_failover;
      case PairSel::kBestPair: break;
    }
    return rec_.new_best;
  }

  bool done() const { return t_ms_ >= p_.flow_ms - 1e-9; }
  double t_ms() const { return t_ms_; }

  // Transmit one aggregated frame (FAT) at (pair, mcs); truncated by flow
  // end. Returns false when the flow is over.
  bool frame(PairSel pair, phy::McsIndex mcs) {
    if (done()) return false;
    const double dur = std::min(fat_ms_, p_.flow_ms - t_ms_);
    const double tput =
        trace_for(pair).throughput_mbps[static_cast<std::size_t>(mcs)];
    emit(tput, dur);
    return true;
  }

  void silence(double ms) {
    if (done()) return;
    emit(0.0, std::min(ms, p_.flow_ms - t_ms_));
  }

  // Mark the first time a working MCS is in use.
  void link_restored_now() {
    if (!delay_recorded_) {
      delay_recorded_ = true;
      result_.recovery_delay_ms = t_ms_;
    }
  }

  // Run the downward repair walk on `pair` starting at `start`; charges one
  // frame per probe and records the restoration time. Returns the settled
  // MCS (-1 if nothing works on this pair).
  phy::McsIndex repair_walk(PairSel pair, phy::McsIndex start) {
    const core::RaWalk walk = core::ra_repair_walk(trace_for(pair), start);
    for (std::size_t i = 0; i < walk.probes.size() && !done(); ++i) {
      frame(pair, walk.probes[i]);
      if (static_cast<int>(i) == walk.first_working_probe) {
        link_restored_now();
      }
    }
    return walk.settled;
  }

  // Steady state: hold (pair, mcs) with periodic upward probing until the
  // flow ends.
  void settle(PairSel pair, phy::McsIndex mcs) {
    result_.settled_pair = pair;
    result_.settled_mcs = mcs;
    const trace::PairTrace& t = trace_for(pair);
    if (t.works_at(mcs)) link_restored_now();
    core::UpProber prober(mcs);
    while (!done()) {
      frame(pair, trace::up_probe_frame(prober, t));
      result_.settled_mcs = prober.current();
    }
  }

  // The link could not be repaired: idle out the flow.
  void dead_air() {
    result_.link_restored = false;
    silence(p_.flow_ms - t_ms_);
  }

  EventResult finish() {
    if (!delay_recorded_) {
      result_.recovery_delay_ms = p_.flow_ms;
      result_.link_restored = false;
    }
    return std::move(result_);
  }

 private:
  void emit(double tput_mbps, double dur_ms) {
    result_.bytes_mb += tput_mbps * dur_ms / 8000.0;
    if (record_) result_.tput_segments.emplace_back(tput_mbps, dur_ms);
    t_ms_ += dur_ms;
  }

  const trace::CaseRecord& rec_;
  double fat_ms_;
  const EventParams& p_;
  bool record_;
  EventResult result_;
  double t_ms_ = 0.0;
  bool delay_recorded_ = false;
};

}  // namespace

EventSimulator::EventSimulator(const trace::GroundTruthConfig& gt,
                               const core::LibraClassifier* classifier)
    : gt_(gt), classifier_(classifier) {
  trace::validate(gt_);
}

EventResult EventSimulator::play(const trace::CaseRecord& rec, Action action,
                                 int lead_frames, const EventParams& params,
                                 bool record_series) const {
  Engine e(rec, gt_.fat_ms, params, record_series);
  const phy::McsIndex m0 = rec.init_mcs;
  const bool init_working = rec.new_at_init_pair.works_at(m0);

  // A link that never broke has zero recovery delay by definition.
  if (init_working) e.link_restored_now();

  // Lead-in frames at the pre-impairment configuration (observation window
  // or detection latency).
  for (int i = 0; i < lead_frames && !e.done(); ++i) {
    e.frame(PairSel::kInitPair, m0);
  }

  switch (action) {
    case Action::kNA: {
      e.settle(PairSel::kInitPair, m0);
      break;
    }
    case Action::kRA: {
      const phy::McsIndex settled = e.repair_walk(PairSel::kInitPair, m0);
      if (settled >= 0) {
        e.settle(PairSel::kInitPair, settled);
      } else {
        // RA exhausted all MCSs: BA, then RA again on the new best pair.
        e.silence(gt_.ba_overhead_ms);
        const phy::McsIndex after = e.repair_walk(PairSel::kBestPair, m0);
        if (after >= 0) {
          e.settle(PairSel::kBestPair, after);
        } else {
          e.dead_air();
        }
      }
      break;
    }
    case Action::kBA: {
      e.silence(gt_.ba_overhead_ms);
      const phy::McsIndex settled = e.repair_walk(PairSel::kBestPair, m0);
      if (settled >= 0) {
        e.settle(PairSel::kBestPair, settled);
      } else {
        e.dead_air();
      }
      break;
    }
  }
  return e.finish();
}

EventResult EventSimulator::run_libra(const trace::CaseRecord& rec,
                                      const EventParams& params,
                                      util::Rng& rng,
                                      bool record_series) const {
  if (!classifier_ || !classifier_->trained()) {
    throw std::logic_error("LiBRA strategy requires a trained classifier");
  }
  const phy::McsIndex m0 = rec.init_mcs;
  const double cdr0 =
      rec.new_at_init_pair.cdr[static_cast<std::size_t>(m0)];
  // A frame's Block ACK survives as long as one of ~32 subframes decodes.
  const double p_ack = 1.0 - std::pow(1.0 - cdr0, 32.0);

  // Missing ACK on the first impaired frame: the Tx has no PHY metrics, the
  // distilled rule fires immediately (Sec. 7, issue 3).
  if (!rng.bernoulli(p_ack)) {
    const Action a = classifier_->no_ack_action(m0, gt_.ba_overhead_ms);
    return play(rec, a, /*lead_frames=*/1, params, record_series);
  }

  // ACKs flow: LiBRA observes one 2-frame window, then classifies; an NA
  // verdict is re-examined on subsequent windows (fresh observation noise).
  const trace::FeatureVector features = trace::extract_features(rec);
  constexpr int kMaxNaRedecisions = 5;
  int lead = 2;
  for (int round = 0; round <= kMaxNaRedecisions; ++round) {
    const Action a = classifier_->classify(features, rng);
    if (a != Action::kNA) return play(rec, a, lead, params, record_series);
    lead += 2;
  }
  return play(rec, Action::kNA, 0, params, record_series);
}

EventResult EventSimulator::run(const trace::CaseRecord& rec,
                                core::Strategy strategy,
                                const EventParams& params, util::Rng& rng,
                                bool record_series) const {
  const bool init_working = rec.new_at_init_pair.works_at(rec.init_mcs);

  // Everyone needs one transmitted frame to notice the impairment; even an
  // oracle cannot adapt before the first failed/degraded frame.
  constexpr int kDetectFrames = 1;
  switch (strategy) {
    case core::Strategy::kRaFirst:
      // Trigger only when the current MCS stops working (Sec. 8.1).
      return play(rec, init_working ? Action::kNA : Action::kRA,
                  kDetectFrames, params, record_series);
    case core::Strategy::kBaFirst:
      return play(rec, init_working ? Action::kNA : Action::kBA,
                  kDetectFrames, params, record_series);
    case core::Strategy::kBeamSounding: {
      // MOCA-style: hop to the pre-sounded failover pair at (nearly) zero
      // cost, rate-adapt there, and only run a full sweep if the failover
      // pair is dead too.
      if (init_working) {
        return play(rec, Action::kNA, kDetectFrames, params, record_series);
      }
      Engine e(rec, gt_.fat_ms, params, record_series);
      for (int i = 0; i < kDetectFrames && !e.done(); ++i) {
        e.frame(PairSel::kInitPair, rec.init_mcs);
      }
      const phy::McsIndex settled =
          e.repair_walk(PairSel::kFailoverPair, rec.init_mcs);
      if (settled >= 0) {
        e.settle(PairSel::kFailoverPair, settled);
      } else {
        e.silence(gt_.ba_overhead_ms);
        const phy::McsIndex after =
            e.repair_walk(PairSel::kBestPair, rec.init_mcs);
        if (after >= 0) {
          e.settle(PairSel::kBestPair, after);
        } else {
          e.dead_air();
        }
      }
      return e.finish();
    }
    case core::Strategy::kLibra:
      return run_libra(rec, params, rng, record_series);
    case core::Strategy::kOracleData: {
      EventResult best;
      bool first = true;
      for (Action a : {Action::kNA, Action::kRA, Action::kBA}) {
        EventResult r = play(rec, a, kDetectFrames, params, record_series);
        if (first || r.bytes_mb > best.bytes_mb) {
          best = std::move(r);
          first = false;
        }
      }
      return best;
    }
    case core::Strategy::kOracleDelay: {
      EventResult best;
      bool first = true;
      for (Action a : {Action::kNA, Action::kRA, Action::kBA}) {
        EventResult r = play(rec, a, kDetectFrames, params, record_series);
        const bool better =
            first || r.recovery_delay_ms < best.recovery_delay_ms ||
            (r.recovery_delay_ms == best.recovery_delay_ms &&
             r.bytes_mb > best.bytes_mb);
        if (better) {
          best = std::move(r);
          first = false;
        }
      }
      return best;
    }
  }
  throw std::invalid_argument("unknown strategy");
}

}  // namespace libra::sim
