// Figures 12-13 (Sec. 8.3): multiple link impairments.
//
// 50 random timelines (10 segments of 300 ms - 3 s each) per scenario type
// (Motion, Blockage, Interference, Mixed), for BA overhead {0.5, 250} ms x
// FAT {2, 10} ms. Reports, as boxplots:
//   Fig. 12 - the fraction of Oracle-Data's bytes each algorithm delivers;
//   Fig. 13 - the gap between each algorithm's average link recovery delay
//             and Oracle-Delay's.
//
// Paper shape: LiBRA delivers 90-95% of the oracle bytes in the median
// ("All"), vs 90-92% for BA First and 71-82% for RA First; Mixed is hardest;
// LiBRA keeps the median delay gap below ~35 ms while BA First exceeds
// 170-250 ms when BA is expensive.
#include <cstdio>

#include "common.h"
#include "mac/timing.h"
#include "sim/timeline.h"

using namespace libra;

namespace {

void print_box(util::Table& t, const std::string& label,
               const std::vector<double>& samples, int precision = 2) {
  const util::BoxplotSummary b = util::boxplot(samples);
  t.add_row({label, util::format_double(b.min, precision),
             util::format_double(b.q1, precision),
             util::format_double(b.median, precision),
             util::format_double(b.q3, precision),
             util::format_double(b.max, precision)});
}

}  // namespace

int main() {
  std::printf("Figs. 12-13: multiple link impairments (50 timelines/type)\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);
  const sim::RecordPools pools = sim::RecordPools::from_dataset(wb.testing);
  constexpr int kTimelines = 50;

  for (double ba : {0.5, 250.0}) {
    for (double fat : mac::kFatsMs) {
      trace::GroundTruthConfig gt;
      gt.alpha = mac::alpha_for_ba_overhead(ba);
      gt.fat_ms = fat;
      gt.ba_overhead_ms = ba;

      util::Rng rng(777);
      core::LibraClassifier classifier;
      classifier.train(wb.training, gt, rng);
      const sim::EventSimulator simulator(&classifier);
      sim::EventParams params;
      params.fat_ms = fat;
      params.ba_overhead_ms = ba;

      char title[128];
      std::snprintf(title, sizeof(title), "BA overhead %.1f ms, FAT %.0f ms",
                    ba, fat);
      bench::heading(title);
      util::Table t12({"Fig12: scenario/algorithm", "min", "q1", "median",
                       "q3", "max"});
      util::Table t13({"Fig13: scenario/algorithm", "min", "q1", "median",
                       "q3", "max"});

      std::map<core::Strategy, std::vector<double>> all_ratio, all_dgap;
      for (sim::ScenarioType type : sim::kAllScenarioTypes) {
        std::map<core::Strategy, std::vector<double>> ratio, dgap;
        for (int i = 0; i < kTimelines; ++i) {
          util::Rng tl_rng = rng.fork();
          const auto timeline =
              sim::make_timeline(type, pools, tl_rng);
          util::Rng run_rng(1000 + i);
          const auto oracle_d = sim::run_timeline(
              timeline, core::Strategy::kOracleData, simulator, params,
              run_rng);
          const auto oracle_t = sim::run_timeline(
              timeline, core::Strategy::kOracleDelay, simulator, params,
              run_rng);
          for (core::Strategy s :
               {core::Strategy::kBaFirst, core::Strategy::kRaFirst,
                core::Strategy::kLibra}) {
            const auto r = sim::run_timeline(timeline, s, simulator, params,
                                             run_rng);
            const double ratio_v =
                oracle_d.bytes_mb > 0 ? r.bytes_mb / oracle_d.bytes_mb : 1.0;
            const double dgap_v =
                r.avg_recovery_delay_ms - oracle_t.avg_recovery_delay_ms;
            ratio[s].push_back(ratio_v);
            dgap[s].push_back(dgap_v);
            all_ratio[s].push_back(ratio_v);
            all_dgap[s].push_back(dgap_v);
          }
        }
        for (auto& [s, v] : ratio) {
          print_box(t12, to_string(type) + "/" + core::to_string(s), v);
        }
        for (auto& [s, v] : dgap) {
          print_box(t13, to_string(type) + "/" + core::to_string(s), v, 1);
        }
      }
      for (auto& [s, v] : all_ratio) {
        print_box(t12, "All/" + core::to_string(s), v);
      }
      for (auto& [s, v] : all_dgap) {
        print_box(t13, "All/" + core::to_string(s), v, 1);
      }
      std::printf("%s\n%s", t12.to_string().c_str(), t13.to_string().c_str());
    }
  }
  std::printf(
      "\npaper: LiBRA median data ratio 90-95%% (All) vs 90-92%% BA First\n"
      "and 71-82%% RA First; Mixed is the hardest scenario; LiBRA median\n"
      "delay gap <=35 ms while BA First reaches 170-250 ms at 250 ms BA.\n");
  return 0;
}
