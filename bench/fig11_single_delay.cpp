// Figure 11 (Sec. 8.2): single link impairment -- CDFs of the difference
// between each algorithm's link recovery delay and Oracle-Delay's, for the
// full BA-overhead x FAT grid.
//
// Paper shape: the recovery delay is longest with RA First when BA is cheap
// (0.5/5 ms) and with BA First when BA is expensive (150/250 ms; median gap
// > 200 ms at 250 ms). LiBRA stays within ~5 ms of optimal in 57-98% of the
// cases across all parameter combinations.
#include <cstdio>

#include "common.h"
#include "mac/timing.h"
#include "sim/event_sim.h"

using namespace libra;

int main() {
  std::printf("Fig. 11: single impairment, recovery-delay gap vs Oracle-Delay\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);

  for (double ba : mac::kBaOverheadsMs) {
    for (double fat : mac::kFatsMs) {
      trace::GroundTruthConfig gt;
      gt.alpha = mac::alpha_for_ba_overhead(ba);
      gt.fat_ms = fat;
      gt.ba_overhead_ms = ba;

      util::Rng rng(321);
      core::LibraClassifier classifier;
      classifier.train(wb.training, gt, rng);
      const sim::EventSimulator simulator(gt, &classifier);
      const sim::EventParams p{/*flow_ms=*/1000.0};

      char title[128];
      std::snprintf(title, sizeof(title), "BA overhead %.1f ms, FAT %.0f ms",
                    ba, fat);
      bench::heading(title);
      util::Table t = bench::cdf_table("algorithm");
      std::map<core::Strategy, std::vector<double>> gaps;
      std::map<core::Strategy, int> within5;
      int broken_links = 0;
      for (const trace::CaseRecord& rec : wb.testing.records) {
        const auto oracle =
            simulator.run(rec, core::Strategy::kOracleDelay, p, rng);
        // Delay comparisons are meaningful only when the link actually
        // broke (otherwise every delay is 0).
        bool counted = false;
        for (core::Strategy s :
             {core::Strategy::kBaFirst, core::Strategy::kRaFirst,
              core::Strategy::kLibra}) {
          const auto r = simulator.run(rec, s, p, rng);
          const double gap = r.recovery_delay_ms - oracle.recovery_delay_ms;
          gaps[s].push_back(gap);
          within5[s] += gap <= 5.0;
          counted = true;
        }
        if (counted && oracle.recovery_delay_ms > 0.0) ++broken_links;
      }
      for (auto& [s, v] : gaps) {
        const double frac = 100.0 * within5[s] / static_cast<double>(v.size());
        bench::print_cdf_row(t, core::to_string(s), v, 1);
        std::printf("  %-12s within 5 ms of optimal in %.0f%% of cases\n",
                    core::to_string(s).c_str(), frac);
      }
      std::printf("%s(%d of %zu cases actually broke the link)\n",
                  t.to_string().c_str(), broken_links,
                  wb.testing.records.size());
    }
  }
  std::printf(
      "\npaper: RA First slowest at low BA overhead; BA First slowest at\n"
      "high BA overhead (median gap >200 ms at 250 ms); LiBRA within 5 ms\n"
      "of optimal in 57-98%% of cases.\n");
  return 0;
}
