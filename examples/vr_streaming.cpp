// Stream 8K VR over a 60 GHz link while the player moves around, and watch
// how the choice of link adaptation strategy turns into stalls (Sec. 8.4).
#include <cstdio>

#include "core/classifier.h"
#include "phy/error_model.h"
#include "sim/timeline.h"
#include "sim/vr.h"

using namespace libra;

int main() {
  phy::McsTable table;
  phy::ErrorModel em(&table);
  trace::CollectOptions opt;
  const trace::Dataset training =
      trace::collect_dataset(trace::training_scenarios(), em, opt);
  const trace::Dataset testing = trace::collect_dataset(
      trace::testing_scenarios(), em, {opt.collector, 77, true});

  trace::GroundTruthConfig gt;
  gt.alpha = 0.7;
  util::Rng rng(3);
  core::LibraClassifier classifier;
  classifier.train(training, gt, rng);
  const sim::EventSimulator simulator(gt, &classifier);

  // Mobility-only pool, restricted to links that can carry the stream.
  sim::RecordPools pools;
  for (const auto& rec : testing.records) {
    if (rec.impairment != trace::Impairment::kDisplacement) continue;
    double best = 0.0;
    for (double t : rec.new_best.throughput_mbps) best = std::max(best, t);
    if (best * sim::kVrCotsScale >= sim::kVrBitrateMbps * 1.15) {
      pools.displacement.push_back(&rec);
    }
  }
  std::printf("VR-capable mobility cases: %zu\n", pools.displacement.size());

  std::printf("\n30 s of 8K VR at 60 FPS (%.0f Mbps demand), 10 play-throughs:\n",
              sim::kVrBitrateMbps);
  std::printf("%-14s %-16s %-14s\n", "strategy", "avg stalls", "avg stall ms");
  for (core::Strategy s : core::kAllStrategies) {
    double stalls = 0.0, stall_ms = 0.0;
    constexpr int kRuns = 10;
    for (int i = 0; i < kRuns; ++i) {
      util::Rng tl_rng(100 + i);
      const auto timeline =
          sim::make_timeline(sim::ScenarioType::kMotion, pools, tl_rng);
      util::Rng run_rng(200 + i);
      const auto link_run =
          sim::run_timeline(timeline, s, simulator, run_rng, /*record=*/true);
      double duration = 0.0;
      for (const auto& [tput, dur] : link_run.tput_segments) duration += dur;
      util::Rng vr_rng(300 + i);
      const auto frames =
          sim::generate_frame_sizes_mb(duration, vr_rng);
      const auto vr = sim::play_vr(frames, link_run.tput_segments);
      stalls += vr.stalls;
      stall_ms += vr.avg_stall_ms;
    }
    std::printf("%-14s %-16.1f %-14.1f\n", core::to_string(s).c_str(),
                stalls / kRuns, stall_ms / kRuns);
  }
  return 0;
}
