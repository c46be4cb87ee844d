// Extension experiment (beyond the paper's trace-based evaluation):
// closed-loop validation. The paper evaluates LiBRA by replaying collected
// traces (Sec. 8); here the three controllers run LIVE against the channel
// model -- Algorithm 1 executing frame by frame while the Rx moves, people
// walk through the beam, and a hidden terminal bursts.
//
// Expected shape (consistent with Sec. 8): LiBRA sustains the highest
// goodput with the fewest/shortest outages; RA First accumulates outages in
// scenarios needing beam changes; BA First wastes sweeps when RA would do.
#include <cstdio>
#include <functional>
#include <memory>

#include "common.h"
#include "core/controller.h"
#include "env/registry.h"
#include "sim/session.h"

using namespace libra;

namespace {

struct Scenario {
  const char* name;
  std::function<sim::SessionScript()> make;
};

std::vector<Scenario> scenarios() {
  return {
      {"static 10 s",
       [] {
         sim::SessionScript s;
         s.duration_ms = 10000;
         s.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
         return s;
       }},
      {"blockage 3-6 s",
       [] {
         sim::SessionScript s;
         s.duration_ms = 10000;
         s.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
         s.blockage.push_back({3000, 6000, {{6, 6}, 0.25, 28.0}});
         return s;
       }},
      {"double blockage",
       [] {
         sim::SessionScript s;
         s.duration_ms = 12000;
         s.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
         s.blockage.push_back({2000, 4000, {{6, 6}, 0.25, 28.0}});
         s.blockage.push_back({7000, 9000, {{4, 6}, 0.25, 28.0}});
         return s;
       }},
      {"walk away facing AP",
       [] {
         sim::SessionScript s;
         s.duration_ms = 12000;
         s.rx_trajectory = sim::Trajectory::walk({6, 6}, {21, 6}, 12000.0,
                                                 geom::Vec2{2, 6});
         return s;
       }},
      {"rotate 0->90 deg",
       [] {
         sim::SessionScript s;
         s.duration_ms = 8000;
         s.rx_trajectory = sim::Trajectory({{0, {10, 6}, 180.0},
                                            {2000, {10, 6}, 180.0},
                                            {6000, {10, 6}, 90.0},
                                            {8000, {10, 6}, 90.0}});
         return s;
       }},
      {"interference burst",
       [] {
         sim::SessionScript s;
         s.duration_ms = 10000;
         s.rx_trajectory = sim::Trajectory::stationary({10, 6}, 180.0);
         s.interference.push_back({3000, 7000, {{10.5, 4.0}, 55.0, 0.5}});
         return s;
       }},
      {"mixed walk+block",
       [] {
         sim::SessionScript s;
         s.duration_ms = 15000;
         s.rx_trajectory = sim::Trajectory::walk({6, 6}, {18, 8}, 15000.0,
                                                 geom::Vec2{2, 6});
         s.blockage.push_back({5000, 8000, {{7, 6.4}, 0.25, 28.0}});
         s.interference.push_back({10000, 13000, {{12, 3.0}, 55.0, 0.5}});
         return s;
       }},
  };
}

}  // namespace

int main() {
  std::printf(
      "Closed-loop live sessions (extension; controllers run Algorithm 1 "
      "against the live channel)\n");
  auto wb = bench::Workbench::collect(/*with_na=*/true);
  trace::GroundTruthConfig gt;
  util::Rng rng(17);
  core::LibraClassifier classifier;
  classifier.train(wb.training, gt, rng);

  constexpr int kRepeats = 5;
  for (const Scenario& sc : scenarios()) {
    bench::heading(sc.name);
    util::Table t({"controller", "bytes (MB)", "goodput (Mbps)", "BA", "RA",
                   "outages", "outage ms"});
    for (int variant = 0; variant < 3; ++variant) {
      double bytes = 0, goodput = 0, ba = 0, ra = 0, outages = 0, ms = 0;
      const char* name = variant == 0   ? "LiBRA"
                         : variant == 1 ? "RA First"
                                        : "BA First";
      for (int rep = 0; rep < kRepeats; ++rep) {
        env::Environment lobby = env::make_lobby();
        const array::Codebook codebook;
        array::PhasedArray tx({2, 6}, 0.0, &codebook);
        array::PhasedArray rx({10, 6}, 180.0, &codebook);
        channel::Link link(&lobby, &tx, &rx);
        std::unique_ptr<core::LinkController> ctrl;
        switch (variant) {
          case 0:
            ctrl = std::make_unique<core::LibraController>(
                &link, wb.error_model.get(), &classifier);
            break;
          case 1:
            ctrl = std::make_unique<core::RaFirstController>(
                &link, wb.error_model.get());
            break;
          default:
            ctrl = std::make_unique<core::BaFirstController>(
                &link, wb.error_model.get());
        }
        util::Rng srng(100 + rep);
        const sim::SessionScript script = sc.make();
        const sim::SessionResult r =
            sim::run_session(lobby, link, *ctrl, script, srng);
        bytes += r.bytes_mb;
        goodput += r.avg_goodput_mbps;
        ba += r.adaptations_ba;
        ra += r.adaptations_ra;
        outages += r.outages;
        ms += r.total_outage_ms;
      }
      t.add_row({name, util::format_double(bytes / kRepeats, 0),
                 util::format_double(goodput / kRepeats, 0),
                 util::format_double(ba / kRepeats, 1),
                 util::format_double(ra / kRepeats, 1),
                 util::format_double(outages / kRepeats, 1),
                 util::format_double(ms / kRepeats, 0)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  return 0;
}
