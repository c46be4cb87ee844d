// Figures 1-3 (Sec. 3): COTS 802.11ad heuristics in static, blockage and
// mobility scenarios.
//
// For each scenario we run the COTS device model for 60 s with BA enabled
// and with BA disabled + the best sector locked (found by an exhaustive
// offline search), and report: the number of BA triggers, the number of
// distinct sectors used (the "sector flapping" of Figs. 1a-3b), and the
// average throughput of both variants (Figs. 1c-3c).
//
// Paper shape: static -> disabling BA gains ~26%; blockage -> BA costs ~16%;
// mobility -> BA GAINS ~15% (the one case where adaptation helps).
#include <cstdio>
#include <set>

#include "common.h"
#include "core/cots_device.h"
#include "env/registry.h"
#include "mac/beam_training.h"
#include "util/table.h"

using namespace libra;

namespace {

struct RunStats {
  double avg_tput_mbps = 0.0;
  int ba_triggers = 0;
  int distinct_sectors = 0;
  std::vector<std::pair<double, int>> sector_timeline;  // (t_ms, sector)
};

// Find the best static sector by sequentially trying all of them, as the
// paper did manually with the LEDE firmware.
array::BeamId best_static_sector(channel::Link& link,
                                 const phy::ErrorModel& em) {
  array::BeamId best = 0;
  double best_snr = -1e9;
  for (array::BeamId s = 0; s < link.tx().codebook().size(); ++s) {
    const double snr = link.snr_db(s, array::kQuasiOmni);
    if (snr > best_snr) {
      best_snr = snr;
      best = s;
    }
  }
  (void)em;
  return best;
}

// Best static sector for a whole trajectory: the sector maximizing the
// average achievable throughput over the sampled Rx positions -- this is
// what "manually discovered by sequentially trying all sectors" finds for a
// mobile experiment.
array::BeamId best_trajectory_sector(channel::Link& link,
                                     const phy::ErrorModel& em,
                                     const std::vector<geom::Vec2>& positions) {
  array::BeamId best = 0;
  double best_avg = -1.0;
  const geom::Vec2 start = link.rx().position();
  for (array::BeamId s = 0; s < link.tx().codebook().size(); ++s) {
    double sum = 0.0;
    for (const geom::Vec2& p : positions) {
      link.rx().set_position(p);
      link.refresh();
      const double snr = link.snr_db(s, array::kQuasiOmni);
      const phy::McsIndex m = em.table().highest_supported(snr);
      if (m >= 0) sum += em.expected_throughput_mbps(m, snr);
    }
    if (sum > best_avg) {
      best_avg = sum;
      best = s;
    }
  }
  link.rx().set_position(start);
  link.refresh();
  return best;
}

// One 60 s run. `mover` is called every frame to update the Rx (mobility).
template <typename Mover>
RunStats run(env::Environment& environment, channel::Link& link,
             const phy::ErrorModel& em, bool ba_enabled, Mover&& mover,
             std::uint64_t seed, array::BeamId lock_override = -2) {
  core::CotsDeviceConfig cfg;
  // Phone-grade firmware: BA fires after two consecutive missing ACKs or a
  // few frames of poor in-AMPDU delivery.
  cfg.ba_after_ack_losses = 2;
  cfg.ba_cdr_threshold = 0.4;
  core::CotsDevice device(&link, &em, cfg);
  util::Rng rng(seed);
  if (ba_enabled) {
    device.associate(rng);
  } else {
    device.lock_sector(lock_override >= 0 ? lock_override
                                          : best_static_sector(link, em));
  }
  (void)environment;

  RunStats stats;
  std::set<int> sectors;
  double tput_sum = 0.0;
  int frames = 0;
  int last_sector = -999;
  while (device.time_ms() < 60000.0) {
    mover(device.time_ms());
    const core::CotsFrameLog log = device.step(rng);
    tput_sum += log.throughput_mbps;
    ++frames;
    if (log.ba_triggered) ++stats.ba_triggers;
    sectors.insert(log.tx_sector);
    if (log.tx_sector != last_sector) {
      stats.sector_timeline.emplace_back(log.t_ms, log.tx_sector);
      last_sector = log.tx_sector;
    }
  }
  stats.avg_tput_mbps = tput_sum / frames;
  stats.distinct_sectors = static_cast<int>(sectors.size());
  return stats;
}

void report(const char* name, const RunStats& ba_on, const RunStats& ba_off,
            const char* paper_note) {
  bench::heading(name);
  util::Table t({"variant", "avg tput (Mbps)", "BA triggers",
                 "distinct sectors"});
  t.add_row({"BA enabled", util::format_double(ba_on.avg_tput_mbps, 0),
             std::to_string(ba_on.ba_triggers),
             std::to_string(ba_on.distinct_sectors)});
  t.add_row({"BA disabled (best static)",
             util::format_double(ba_off.avg_tput_mbps, 0),
             std::to_string(ba_off.ba_triggers),
             std::to_string(ba_off.distinct_sectors)});
  std::printf("%s", t.to_string().c_str());
  const double gain =
      (ba_off.avg_tput_mbps - ba_on.avg_tput_mbps) / ba_on.avg_tput_mbps;
  std::printf("static-sector gain over BA: %+.1f%%   (paper: %s)\n",
              gain * 100.0, paper_note);
  std::printf("first sector switches (t_ms -> sector): ");
  for (std::size_t i = 0; i < ba_on.sector_timeline.size() && i < 10; ++i) {
    std::printf("%.0f->%d ", ba_on.sector_timeline[i].first,
                ba_on.sector_timeline[i].second);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Figures 1-3: COTS link adaptation heuristics (Sec. 3)\n");
  phy::McsTable table;
  const phy::ErrorModel em(&table);
  const array::Codebook codebook;
  // COTS devices (Talon/phone) run at a higher EIRP than the X60 budget
  // used for the dataset; quasi-omni reception eats the Rx array gain.
  channel::LinkBudgetConfig cots_budget;
  cots_budget.tx_power_dbm = 13.0;

  // --- Fig. 1: static client, 9 m down a corridor (30 ft, as the paper). ---
  {
    env::Environment corridor = env::make_corridor(3.2);
    array::PhasedArray tx({0.5, 1.6}, 0.0, &codebook);
    array::PhasedArray rx({9.5, 1.6}, 180.0, &codebook);
    channel::Link link(&corridor, &tx, &rx, cots_budget);
    const auto on = run(corridor, link, em, true, [](double) {}, 11);
    const auto off = run(corridor, link, em, false, [](double) {}, 12);
    report("Fig. 1: static LOS", on, off, "+26% (Fig. 1c)");
  }

  // --- Fig. 2: human blocker on the LOS in the lobby. The client is close
  // enough that a wall reflection still sustains a low MCS. ---
  {
    env::Environment lobby = env::make_lobby();
    array::PhasedArray tx({2.0, 6.0}, 0.0, &codebook);
    array::PhasedArray rx({7.0, 6.0}, 180.0, &codebook);
    channel::Link link(&lobby, &tx, &rx, cots_budget);
    lobby.add_blocker({{4.5, 6.0}, 0.25, 28.0});
    link.refresh();
    const auto on = run(lobby, link, em, true, [](double) {}, 21);
    const auto off = run(lobby, link, em, false, [](double) {}, 22);
    report("Fig. 2: blockage", on, off, "+16% (Fig. 2c)");
  }

  // --- Fig. 3: mobility. The client walks across the lobby at ~8-11 m from
  // the AP while facing it; the AP-to-client angle sweeps ~90 degrees, so
  // the optimal Tx sector genuinely changes during the motion -- the one
  // case where triggering BA pays off. (The paper's radial walk produces
  // the same sector churn on real hardware through imperfect beam patterns
  // and reflections; with our idealized 30-degree lobes a radial walk keeps
  // one sector optimal, so we exercise the same code path with a lateral
  // walk instead. See DESIGN.md.) ---
  {
    env::Environment lobby = env::make_lobby();
    array::PhasedArray tx({12.0, 1.5}, 90.0, &codebook);
    array::PhasedArray rx({4.0, 9.5}, -90.0, &codebook);
    channel::Link link(&lobby, &tx, &rx, cots_budget);
    const double walk_mps = 16.0 / 60.0;  // 16 m across in 60 s
    auto mover = [&](double t_ms) {
      const double x = 4.0 + walk_mps * t_ms / 1000.0;
      if (std::abs(link.rx().position().x - x) > 0.05) {
        link.rx().set_position({x, 9.5});
        link.refresh();
      }
    };
    std::vector<geom::Vec2> trajectory;
    for (double x = 4.0; x <= 20.0; x += 1.0) trajectory.push_back({x, 9.5});
    const array::BeamId lock = best_trajectory_sector(link, em, trajectory);
    const auto on = run(lobby, link, em, true, mover, 31);
    link.rx().set_position({4.0, 9.5});
    link.refresh();
    const auto off = run(lobby, link, em, false, mover, 32, lock);
    report("Fig. 3: mobility (walking across, facing AP)", on, off,
           "-15% (BA helps; Fig. 3c)");
  }
  return 0;
}
