#include "sim/timeline.h"

#include <stdexcept>
#include <string>

#include "core/rate_adaptation.h"
#include "trace/collector.h"

namespace libra::sim {

std::string to_string(ScenarioType t) {
  switch (t) {
    case ScenarioType::kMotion: return "Motion";
    case ScenarioType::kBlockage: return "Blockage";
    case ScenarioType::kInterference: return "Interference";
    case ScenarioType::kMixed: return "Mixed";
  }
  return "?";
}

RecordPools RecordPools::from_dataset(const trace::Dataset& ds) {
  RecordPools pools;
  for (const trace::CaseRecord& rec : ds.records) {
    switch (rec.impairment) {
      case trace::Impairment::kDisplacement:
        pools.displacement.push_back(&rec);
        break;
      case trace::Impairment::kBlockage:
        pools.blockage.push_back(&rec);
        break;
      case trace::Impairment::kInterference:
        pools.interference.push_back(&rec);
        break;
    }
  }
  return pools;
}

namespace {

// Guard before touching the rng: uniform_int(0, -1) on an empty pool would
// be undefined, and the caller deserves to know WHICH pool the dataset was
// missing (a blockage-only dataset fails kMixed only when the segment draw
// happens to pick another impairment -- name the gap explicitly).
const trace::CaseRecord* draw(const std::vector<const trace::CaseRecord*>& pool,
                              const char* pool_name, util::Rng& rng) {
  if (pool.empty()) {
    throw std::invalid_argument(std::string("make_timeline: empty ") +
                                pool_name +
                                " record pool (dataset has no such cases)");
  }
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
}

}  // namespace

std::vector<TimelineSegment> make_timeline(ScenarioType type,
                                           const RecordPools& pools,
                                           util::Rng& rng) {
  std::vector<TimelineSegment> timeline;
  timeline.reserve(kTimelineSegments);
  const trace::CaseRecord* last = nullptr;
  for (int i = 0; i < kTimelineSegments; ++i) {
    TimelineSegment seg;
    seg.duration_ms = rng.uniform(kMinSegmentMs, kMaxSegmentMs);
    ScenarioType effective = type;
    if (type == ScenarioType::kMixed) {
      const int pick = rng.uniform_int(0, 2);
      effective = pick == 0 ? ScenarioType::kMotion
                  : pick == 1 ? ScenarioType::kBlockage
                              : ScenarioType::kInterference;
    }
    switch (effective) {
      case ScenarioType::kMotion:
        seg.record = draw(pools.displacement, "displacement", rng);
        seg.impaired = true;
        break;
      case ScenarioType::kBlockage:
      case ScenarioType::kInterference: {
        // Alternate impaired and clear segments.
        const bool clear = (i % 2 == 1) && last != nullptr;
        if (clear) {
          seg.record = last;
          seg.impaired = false;
        } else if (effective == ScenarioType::kBlockage) {
          seg.record = draw(pools.blockage, "blockage", rng);
          seg.impaired = true;
        } else {
          seg.record = draw(pools.interference, "interference", rng);
          seg.impaired = true;
        }
        break;
      }
      case ScenarioType::kMixed:
        break;  // unreachable
    }
    last = seg.record;
    timeline.push_back(seg);
  }
  return timeline;
}

namespace {

// Clear-segment continuation: the impairment is gone. The settled pair
// keeps working; with the initial pair the pre-impairment trace applies,
// with the reflected (new best) pair the impairment barely affected it, so
// its own trace applies. Upward probing recovers the MCS. Returns the bytes
// delivered and updates `mcs` in place.
double clear_segment_bytes(const trace::CaseRecord& record, PairSel pair,
                           phy::McsIndex& mcs, double duration_ms,
                           const EventParams& params,
                           std::vector<std::pair<double, double>>* series) {
  const auto trace_of = [&](PairSel p) -> const trace::PairTrace& {
    switch (p) {
      case PairSel::kInitPair: return record.init_best;
      case PairSel::kFailoverPair: return record.init_failover;
      case PairSel::kBestPair: break;
    }
    return record.new_best;
  };
  core::UpProber prober(mcs);
  double bytes = 0.0;
  double t_ms = 0.0;
  const double refresh_ms = params.effective_refresh_interval_ms();
  double next_refresh_ms = refresh_ms;
  while (t_ms < duration_ms) {
    // Periodic beam refresh: re-train and hop back to the better pair for
    // the (clear) state; the sweep costs airtime.
    if (t_ms >= next_refresh_ms) {
      next_refresh_ms += refresh_ms;
      const auto best_tput = [&](PairSel p) {
        const trace::PairTrace& t = trace_of(p);
        const phy::McsIndex m = t.best_mcs();
        return m >= 0 ? t.throughput_mbps[static_cast<std::size_t>(m)] : 0.0;
      };
      const PairSel better = best_tput(PairSel::kInitPair) >=
                                     best_tput(PairSel::kBestPair)
                                 ? PairSel::kInitPair
                                 : PairSel::kBestPair;
      const double sweep = std::min(params.ba_overhead_ms, duration_ms - t_ms);
      if (series) series->emplace_back(0.0, sweep);
      t_ms += sweep;
      if (better != pair) {
        pair = better;
        prober.reset(trace_of(pair).best_mcs());
      }
      continue;
    }
    const trace::PairTrace& t = trace_of(pair);
    const double dur = std::min(params.fat_ms, duration_ms - t_ms);
    const phy::McsIndex m = trace::up_probe_frame(prober, t);
    const double tput = t.throughput_mbps[static_cast<std::size_t>(m)];
    bytes += tput * dur / 8000.0;
    if (series) series->emplace_back(tput, dur);
    t_ms += dur;
  }
  mcs = prober.current();
  return bytes;
}

// Episode-aware oracle decision: pick the action optimizing the metric over
// the impaired segment PLUS the following clear segment (if any) -- a
// per-event oracle that ignored the continuation could be beaten by a
// "suboptimal" settle that pays off once the impairment clears.
EventResult oracle_episode(const EventSimulator& simulator,
                           const trace::CaseRecord& record,
                           core::Strategy strategy, const EventParams& params,
                           double clear_ms, bool record_series) {
  EventResult best;
  double best_bytes = -1.0;
  double best_delay = 0.0;
  bool first = true;
  for (trace::Action a :
       {trace::Action::kNA, trace::Action::kRA, trace::Action::kBA}) {
    EventResult r = simulator.play_action(record, a, 1, params, record_series);
    double episode_bytes = r.bytes_mb;
    if (clear_ms > 0.0) {
      phy::McsIndex mcs = r.settled_mcs;
      episode_bytes += clear_segment_bytes(record, r.settled_pair, mcs,
                                           clear_ms, params, nullptr);
    }
    const bool better =
        strategy == core::Strategy::kOracleData
            ? (first || episode_bytes > best_bytes)
            : (first || r.recovery_delay_ms < best_delay ||
               (r.recovery_delay_ms == best_delay &&
                episode_bytes > best_bytes));
    if (better) {
      best = std::move(r);
      best_bytes = episode_bytes;
      best_delay = best.recovery_delay_ms;
      first = false;
    }
  }
  return best;
}

}  // namespace

TimelineResult run_timeline(const std::vector<TimelineSegment>& timeline,
                            core::Strategy strategy,
                            const EventSimulator& simulator,
                            const EventParams& params, util::Rng& rng,
                            bool record_series) {
  TimelineResult total;
  double delay_sum = 0.0;

  // Configuration carried across segments (used by clear segments).
  PairSel pair = PairSel::kInitPair;
  phy::McsIndex mcs = 0;
  const trace::CaseRecord* current = nullptr;
  const bool is_oracle = strategy == core::Strategy::kOracleData ||
                         strategy == core::Strategy::kOracleDelay;

  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const TimelineSegment& seg = timeline[i];
    if (seg.impaired) {
      EventParams p = params;
      p.flow_ms = seg.duration_ms;
      const double clear_ms =
          (i + 1 < timeline.size() && !timeline[i + 1].impaired)
              ? timeline[i + 1].duration_ms
              : 0.0;
      const EventResult r =
          is_oracle ? oracle_episode(simulator, *seg.record, strategy, p,
                                     clear_ms, record_series)
                    : simulator.run(*seg.record, strategy, p, rng,
                                    record_series);
      total.bytes_mb += r.bytes_mb;
      // Count a link break only when the impairment actually broke the
      // working MCS (recovery delay 0 means it never broke).
      if (r.recovery_delay_ms > 0.0) {
        ++total.link_breaks;
        delay_sum += r.recovery_delay_ms;
      }
      pair = r.settled_pair;
      mcs = r.settled_mcs;
      current = seg.record;
      if (record_series) {
        total.tput_segments.insert(total.tput_segments.end(),
                                   r.tput_segments.begin(),
                                   r.tput_segments.end());
      }
    } else {
      total.bytes_mb += clear_segment_bytes(
          *current, pair, mcs, seg.duration_ms, params,
          record_series ? &total.tput_segments : nullptr);
    }
  }
  total.avg_recovery_delay_ms =
      total.link_breaks > 0 ? delay_sum / total.link_breaks : 0.0;
  return total;
}

}  // namespace libra::sim
