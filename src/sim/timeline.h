// Multi-impairment timelines (Sec. 8.3).
//
// A timeline is kTimelineSegments segments of random duration (300 ms -
// 3 s). Four types:
//   Motion       - every segment starts with a fresh displacement event;
//   Blockage     - alternates human-blockage segments and clear-LOS segments;
//   Interference - alternates interfered and clear-channel segments;
//   Mixed        - a random mixture of the three.
//
// An impaired segment replays a collected case (the device enters it at the
// case's initial configuration, as in the paper's per-segment trace
// stitching); a clear segment continues from the configuration the strategy
// settled on, using the pre-impairment trace of that pair.
#pragma once

#include <vector>

#include "sim/event_sim.h"

namespace libra::sim {

enum class ScenarioType { kMotion, kBlockage, kInterference, kMixed };
std::string to_string(ScenarioType t);

inline constexpr ScenarioType kAllScenarioTypes[] = {
    ScenarioType::kMotion, ScenarioType::kBlockage,
    ScenarioType::kInterference, ScenarioType::kMixed};

struct TimelineSegment {
  const trace::CaseRecord* record = nullptr;
  bool impaired = true;
  double duration_ms = 1000.0;
};

inline constexpr int kTimelineSegments = 10;
inline constexpr double kMinSegmentMs = 300.0;
inline constexpr double kMaxSegmentMs = 3000.0;
static_assert(0.0 < kMinSegmentMs && kMinSegmentMs <= kMaxSegmentMs);

// Pools of case records per impairment type, drawn from a dataset.
struct RecordPools {
  std::vector<const trace::CaseRecord*> displacement;
  std::vector<const trace::CaseRecord*> blockage;
  std::vector<const trace::CaseRecord*> interference;

  static RecordPools from_dataset(const trace::Dataset& ds);
};

std::vector<TimelineSegment> make_timeline(ScenarioType type,
                                           const RecordPools& pools,
                                           util::Rng& rng);

struct TimelineResult {
  double bytes_mb = 0.0;
  double avg_recovery_delay_ms = 0.0;  // sum of delays / number of breaks
  int link_breaks = 0;
  std::vector<std::pair<double, double>> tput_segments;  // when recorded
};

// Each impaired segment is one simulator event with the segment's duration
// as its flow.
TimelineResult run_timeline(const std::vector<TimelineSegment>& timeline,
                            core::Strategy strategy,
                            const EventSimulator& simulator, util::Rng& rng,
                            bool record_series = false);

}  // namespace libra::sim
