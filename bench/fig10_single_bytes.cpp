// Figure 10 (Sec. 8.2): single link impairment -- CDFs of the difference
// between the bytes delivered by Oracle-Data and each algorithm, for every
// combination of BA overhead {0.5, 5, 150, 250} ms, FAT {2, 10} ms and flow
// duration {0.4, 1} s, over the combined Buildings-1/2 dataset.
//
// Paper shape: LiBRA tracks the oracle (same bytes in ~85% of cases at
// FAT 2 ms); BA First matches in 70-81% and degrades as the BA overhead
// grows; RA First is worst (50-58%) and suffers most from long flows.
#include <cstdio>

#include "common.h"
#include "mac/timing.h"
#include "sim/event_sim.h"

using namespace libra;

int main() {
  std::printf("Fig. 10: single impairment, bytes-delivered gap vs Oracle-Data\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);

  for (double ba : mac::kBaOverheadsMs) {
    for (double fat : mac::kFatsMs) {
      trace::GroundTruthConfig gt;
      gt.alpha = mac::alpha_for_ba_overhead(ba);
      gt.fat_ms = fat;
      gt.ba_overhead_ms = ba;

      util::Rng rng(123);
      core::LibraClassifier classifier;
      classifier.train(wb.training, gt, rng);
      const sim::EventSimulator simulator(&classifier);

      char title[128];
      std::snprintf(title, sizeof(title),
                    "BA overhead %.1f ms, FAT %.0f ms (alpha=%.1f)", ba, fat,
                    gt.alpha);
      bench::heading(title);
      util::Table t = bench::cdf_table("algorithm (flow)");

      for (double flow_ms : {400.0, 1000.0}) {
        sim::EventParams p;
        p.fat_ms = fat;
        p.ba_overhead_ms = ba;
        p.flow_ms = flow_ms;
        std::map<core::Strategy, std::vector<double>> gaps;
        std::map<core::Strategy, int> zero_gap;
        for (const trace::CaseRecord& rec : wb.testing.records) {
          const auto oracle =
              simulator.run(rec, core::Strategy::kOracleData, p, rng);
          for (core::Strategy s :
               {core::Strategy::kBaFirst, core::Strategy::kRaFirst,
                core::Strategy::kLibra}) {
            const auto r = simulator.run(rec, s, p, rng);
            const double gap = oracle.bytes_mb - r.bytes_mb;
            gaps[s].push_back(gap);
            zero_gap[s] += gap <= 1.0;  // "same number of bytes" (within 1 MB)
          }
        }
        for (auto& [s, v] : gaps) {
          char label[64];
          std::snprintf(label, sizeof(label), "%s (%.1f s)",
                        core::to_string(s).c_str(), flow_ms / 1000.0);
          const double frac =
              100.0 * zero_gap[s] / static_cast<double>(v.size());
          bench::print_cdf_row(t, label, v, 1);
          std::printf("  %-20s matches oracle (<=1 MB gap) in %.0f%% of cases\n",
                      label, frac);
        }
      }
      std::printf("%s", t.to_string().c_str());
    }
  }
  std::printf(
      "\npaper: LiBRA ~= oracle in ~85%% of cases (FAT 2 ms); BA First\n"
      "70-81%%, worse with higher BA overhead; RA First 50-58%% and most\n"
      "sensitive to flow length.\n");
  return 0;
}
