// The beam-sounding (MOCA [24]) baseline the paper could not run on X60.
//
// MOCA maintains a pre-sounded, angularly diverse failover sector and hops
// to it instantly on failure -- virtually zero recovery delay, no sweep.
// Sec. 8 (and [9]) argue the approach breaks under angular displacement:
// when the client *rotates*, the failover pair measured at the old
// orientation is as stale as the primary. With the failover pair collected
// at every state, that claim becomes measurable.
#include <cstdio>

#include "common.h"
#include "sim/event_sim.h"

using namespace libra;

int main() {
  std::printf("Beam sounding (MOCA-style failover) vs LiBRA / BA First\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);
  trace::GroundTruthConfig gt;
  gt.alpha = 0.7;
  gt.ba_overhead_ms = 5.0;
  util::Rng rng(23);
  core::LibraClassifier classifier;
  classifier.train(wb.training, gt, rng);
  const sim::EventSimulator simulator(gt, &classifier);
  const sim::EventParams p;

  struct Bucket {
    const char* name;
    std::map<core::Strategy, std::vector<double>> ratio;  // bytes / oracle
    std::map<core::Strategy, std::vector<double>> delay;
  };
  Bucket angular{"angular displacement (rotations)", {}, {}};
  Bucket linear{"linear displacement (moves)", {}, {}};
  Bucket blockage{"blockage", {}, {}};

  const core::Strategy contenders[] = {core::Strategy::kBeamSounding,
                                       core::Strategy::kBaFirst,
                                       core::Strategy::kLibra};
  for (const trace::CaseRecord& rec : wb.testing.records) {
    Bucket* bucket = nullptr;
    if (rec.impairment == trace::Impairment::kDisplacement) {
      bucket = rec.angular_displacement ? &angular : &linear;
    } else if (rec.impairment == trace::Impairment::kBlockage) {
      bucket = &blockage;
    } else {
      continue;
    }
    const auto oracle =
        simulator.run(rec, core::Strategy::kOracleData, p, rng);
    for (core::Strategy s : contenders) {
      const auto r = simulator.run(rec, s, p, rng);
      bucket->ratio[s].push_back(
          oracle.bytes_mb > 0 ? r.bytes_mb / oracle.bytes_mb : 1.0);
      bucket->delay[s].push_back(r.recovery_delay_ms);
    }
  }

  for (Bucket* bucket : {&angular, &linear, &blockage}) {
    bench::heading(bucket->name);
    util::Table t({"strategy", "n", "median bytes ratio", "p10 bytes ratio",
                   "median delay (ms)", "p90 delay (ms)"});
    for (core::Strategy s : contenders) {
      auto& ratio = bucket->ratio[s];
      auto& delay = bucket->delay[s];
      t.add_row({core::to_string(s), std::to_string(ratio.size()),
                 util::format_double(util::median(ratio), 2),
                 util::format_double(util::percentile(ratio, 10), 2),
                 util::format_double(util::median(delay), 1),
                 util::format_double(util::percentile(delay, 90), 1)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\nshape ([9]/[24] discussion in Sec. 2 & 8): beam sounding collapses\n"
      "under rotations -- the stale failover is no better than the stale\n"
      "primary (p10 bytes ratio far below the sweep-based schemes) -- and\n"
      "even elsewhere its 15-degree sector diversity is often not *path*\n"
      "diversity, so the hop frequently lands on a pair the same obstacle\n"
      "killed. LiBRA stays at the oracle across all three buckets.\n");
  return 0;
}
