// Quickstart: build a 60 GHz link in a room, beam-train it, break it with a
// human blocker, and let LiBRA decide how to repair it.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/classifier.h"
#include "env/registry.h"
#include "mac/beam_training.h"
#include "phy/sampler.h"
#include "sim/event_sim.h"
#include "trace/dataset.h"

using namespace libra;

int main() {
  // 1. A lobby, a Tx (AP) and an Rx (client) with SiBeam-style 25-beam
  //    phased arrays, and the X60-like PHY (9 MCSs, 300 Mbps - 4.75 Gbps).
  env::Environment lobby = env::make_lobby();
  const array::Codebook codebook;
  array::PhasedArray ap({2.0, 6.0}, 0.0, &codebook);
  array::PhasedArray client({10.0, 6.0}, 180.0, &codebook);
  channel::Link link(&lobby, &ap, &client);

  phy::McsTable mcs_table;
  phy::ErrorModel error_model(&mcs_table);
  phy::PhySampler sampler(&error_model);
  util::Rng rng(1);

  // 2. Beam training: exhaustive 625-pair sweep, like the dataset collection.
  mac::BeamTrainer trainer;
  const mac::SweepResult beams = trainer.exhaustive(link, sampler, rng);
  std::printf("best beam pair: tx=%d rx=%d, SNR %.1f dB\n", beams.tx_beam,
              beams.rx_beam, beams.snr_db);
  const phy::McsIndex mcs = mcs_table.highest_supported(beams.snr_db);
  std::printf("highest supported MCS: %d (%.0f Mbps PHY rate)\n", mcs,
              mcs_table.rate_mbps(mcs));

  // 3. Break the link: a person steps onto the line of sight.
  lobby.add_blocker({{6.0, 6.0}, 0.25, 28.0});
  std::printf("after blockage: SNR %.1f dB on the old pair\n",
              link.snr_db(beams.tx_beam, beams.rx_beam));

  // 4. Train LiBRA's 3-class model on the paper's measurement campaign
  //    (simulated) and replay the blockage event under every strategy.
  trace::CollectOptions opt;
  const trace::Dataset training =
      trace::collect_dataset(trace::training_scenarios(), error_model, opt);
  trace::GroundTruthConfig gt;
  core::LibraClassifier classifier;
  classifier.train(training, gt, rng);

  // Grab a real blockage case from the campaign and simulate all five
  // strategies on it.
  const trace::CaseRecord* blockage_case = nullptr;
  for (const auto& rec : training.records) {
    if (rec.impairment == trace::Impairment::kBlockage) {
      blockage_case = &rec;
      break;
    }
  }
  const sim::EventSimulator simulator(gt, &classifier);
  const sim::EventParams params;
  std::printf("\nreplaying a collected blockage event (1 s flow):\n");
  for (core::Strategy s : core::kAllStrategies) {
    const sim::EventResult r =
        simulator.run(*blockage_case, s, params, rng);
    std::printf("  %-12s %6.1f MB delivered, link recovered in %5.1f ms\n",
                core::to_string(s).c_str(), r.bytes_mb, r.recovery_delay_ms);
  }
  return 0;
}
