// Table 4 (Sec. 8.4): 8K VR at 60 FPS over mobility timelines.
//
// The VR stream demands ~1.2 Gbps; trace throughputs are scaled down to
// what COTS 802.11ad achieves (<= 2.4 Gbps), and only mobility scenarios
// are used (nobody blocks or jams a VR player mid-game). Reports the
// average stall duration and the average number of stalls per timeline for
// every algorithm including both oracles.
//
// Paper shape: LiBRA suffers far fewer stalls than both heuristics at
// similar or better stall durations; neither oracle is optimal on both
// metrics at once (conflicting throughput/delay requirements).
#include <cstdio>

#include "common.h"
#include "mac/timing.h"
#include "sim/timeline.h"
#include "sim/vr.h"

using namespace libra;

int main() {
  std::printf("Table 4: VR stall duration (ms) / number of stalls\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);
  constexpr int kTimelines = 50;
  const sim::VrConfig vr_cfg;

  // A VR player stays within a few meters of the AP: keep only mobility
  // cases whose link can sustain the stream when adapted correctly
  // (settled throughput above the demand after COTS scaling), so stalls
  // measure *adaptation* quality, not raw capacity.
  const double min_tput =
      vr_cfg.bitrate_mbps / vr_cfg.cots_scale * 1.15;
  sim::RecordPools pools;
  for (const trace::CaseRecord& rec : wb.testing.records) {
    if (rec.impairment != trace::Impairment::kDisplacement) continue;
    const double best_after = *std::max_element(
        rec.new_best.throughput_mbps.begin(),
        rec.new_best.throughput_mbps.end());
    if (best_after >= min_tput) pools.displacement.push_back(&rec);
  }
  std::printf("VR-capable mobility cases: %zu of %zu\n",
              pools.displacement.size(), wb.testing.records.size());

  util::Table t({"BA overhead, FAT", "BA First", "RA First", "LiBRA",
                 "Oracle-Data", "Oracle-Delay"});
  for (double ba : {0.5, 250.0}) {
    for (double fat : mac::kFatsMs) {
      trace::GroundTruthConfig gt;
      gt.alpha = mac::alpha_for_ba_overhead(ba);
      gt.fat_ms = fat;
      gt.ba_overhead_ms = ba;

      util::Rng rng(99);
      core::LibraClassifier classifier;
      classifier.train(wb.training, gt, rng);
      const sim::EventSimulator simulator(&classifier);
      sim::EventParams params;
      params.fat_ms = fat;
      params.ba_overhead_ms = ba;

      std::vector<std::string> row;
      char label[64];
      std::snprintf(label, sizeof(label), "%.1f ms, %.0f ms", ba, fat);
      row.push_back(label);
      for (core::Strategy s : core::kAllStrategies) {
        double stall_ms_sum = 0.0;
        double stalls_sum = 0.0;
        for (int i = 0; i < kTimelines; ++i) {
          util::Rng tl_rng(5000 + i);
          const auto timeline = sim::make_timeline(
              sim::ScenarioType::kMotion, pools, tl_rng);
          util::Rng run_rng(6000 + i);
          const auto r = sim::run_timeline(timeline, s, simulator, params,
                                           run_rng, /*record_series=*/true);
          double duration_ms = 0.0;
          for (const auto& [tput, dur] : r.tput_segments) duration_ms += dur;
          util::Rng vr_rng(7000 + i);
          const auto frames =
              sim::generate_frame_sizes_mb(vr_cfg, duration_ms, vr_rng);
          const auto vr = sim::play_vr(frames, r.tput_segments, vr_cfg);
          stall_ms_sum += vr.avg_stall_ms;
          stalls_sum += vr.stalls;
        }
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%.1f / %.1f",
                      stall_ms_sum / kTimelines, stalls_sum / kTimelines);
        row.push_back(cell);
      }
      t.add_row(std::move(row));
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\npaper (0.5ms/2ms row): BA First 16/46.4, RA First 16/97.5, LiBRA\n"
      "16/0.1, Oracle-Data 0/0, Oracle-Delay 16/46.5 -- LiBRA has by far\n"
      "the fewest stalls; the oracles each optimize only one metric.\n");
  return 0;
}
