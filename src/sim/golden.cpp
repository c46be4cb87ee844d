#include "sim/golden.h"

#include <memory>
#include <optional>
#include <vector>

#include "env/registry.h"

namespace libra::sim {

namespace {

constexpr int kNumMcs = 9;

// Synthetic fixtures mirroring the test corpus: a PairTrace where MCSs
// [0, highest_working] deliver their full rate and everything above
// delivers nothing.
trace::PairTrace golden_trace(int highest_working) {
  const double rates[kNumMcs] = {300,  385,  770,  1155, 1540,
                                 1925, 2310, 3080, 4750};
  trace::PairTrace t;
  t.snr_db = 10.0 + 2.0 * highest_working;
  t.noise_dbm = -74.0;
  t.tof_ns = 20.0;
  t.pdp.assign(64, 1e-12);
  t.pdp[20] = 1e-6;
  t.csi.assign(32, 1.0);
  t.throughput_mbps.resize(kNumMcs);
  t.cdr.resize(kNumMcs);
  for (int m = 0; m < kNumMcs; ++m) {
    const bool works = m <= highest_working;
    t.cdr[static_cast<std::size_t>(m)] = works ? 0.95 : 0.0;
    t.throughput_mbps[static_cast<std::size_t>(m)] =
        works ? rates[m] * 0.92 : 0.0;
  }
  return t;
}

trace::CaseRecord golden_record(int init, int after_ra, int after_ba) {
  trace::CaseRecord rec;
  rec.env_name = "golden";
  rec.position_id = "golden#0";
  rec.init_best = golden_trace(init);
  rec.init_mcs = init;
  rec.new_at_init_pair = golden_trace(after_ra);
  rec.new_best = golden_trace(after_ba);
  rec.init_failover = golden_trace(init > 0 ? init - 1 : 0);
  rec.new_at_failover = golden_trace(after_ba);
  return rec;
}

// A trained 3-class classifier over clearly separated synthetic cases, with
// a multi-threaded forest so the golden run also exercises the thread-count
// invariance of the determinism contract.
const core::LibraClassifier& golden_classifier() {
  static const core::LibraClassifier clf = [] {
    trace::Dataset ds;
    for (int i = 0; i < 40; ++i) {
      trace::CaseRecord ba = golden_record(4, -1, 4);
      ba.init_best.snr_db = 20.0;
      ba.new_at_init_pair.snr_db = 5.0 - 0.1 * (i % 5);
      ba.new_at_init_pair.tof_ns = std::nullopt;
      ds.records.push_back(ba);
      trace::CaseRecord ra = golden_record(8, 5, 5);
      ra.init_best.snr_db = 26.0;
      ra.init_best.tof_ns = 20.0;
      ra.new_at_init_pair.snr_db = 19.0 - 0.1 * (i % 7);
      ra.new_at_init_pair.tof_ns = 45.0;
      ds.records.push_back(ra);
      trace::CaseRecord na = golden_record(6, 6, 6);
      na.forced_na = true;
      na.init_best.snr_db = 22.0;
      na.new_at_init_pair.snr_db = 22.0 - 0.05 * (i % 3);
      ds.na_records.push_back(na);
    }
    core::LibraClassifierConfig cfg;
    cfg.forest.num_threads = 4;
    core::LibraClassifier c(cfg);
    util::Rng rng(1);
    c.train(ds, {}, rng);
    return c;
  }();
  return clf;
}

const phy::ErrorModel& golden_error_model() {
  static const phy::McsTable table;
  static const phy::ErrorModel em(&table);
  return em;
}

// One station's whole world, owned in one place so the fleet members can
// borrow raw pointers.
struct GoldenStation {
  env::Environment env;
  array::PhasedArray ap;
  array::PhasedArray client;
  channel::Link link;
  std::unique_ptr<core::LinkController> controller;
  SessionScript script;

  GoldenStation(const array::Codebook* codebook, geom::Vec2 client_pos,
                bool libra)
      : env(env::make_lobby()),
        ap({2, 6}, 0.0, codebook),
        client(client_pos, 180.0, codebook),
        link(&env, &ap, &client) {
    if (libra) {
      controller = std::make_unique<core::LibraController>(
          &link, &golden_error_model(), &golden_classifier());
    } else {
      controller = std::make_unique<core::RaFirstController>(
          &link, &golden_error_model());
    }
  }
};

}  // namespace

FleetResult run_canonical_faulted_fleet(std::uint64_t fleet_seed,
                                        std::uint64_t fault_seed) {
  const array::Codebook codebook;
  std::vector<std::unique_ptr<GoldenStation>> stations;

  // Station 0: stationary LiBRA link hit by a mid-run blockage episode.
  stations.push_back(
      std::make_unique<GoldenStation>(&codebook, geom::Vec2{10, 6}, true));
  stations[0]->script.duration_ms = 2000.0;
  stations[0]->script.rx_trajectory = Trajectory::stationary({10, 6}, 180.0);
  stations[0]->script.blockage.push_back({600.0, 1400.0, {{6, 6}, 0.3, 35.0}});

  // Station 1: walking LiBRA link (displacement impairment).
  stations.push_back(
      std::make_unique<GoldenStation>(&codebook, geom::Vec2{12, 7}, true));
  stations[1]->script.duration_ms = 2000.0;
  stations[1]->script.rx_trajectory =
      Trajectory::walk({12, 7}, {18, 8}, 2000.0, geom::Vec2{2, 6});

  // Station 2: RA-first baseline under an interference burst.
  stations.push_back(
      std::make_unique<GoldenStation>(&codebook, geom::Vec2{9, 5}, false));
  stations[2]->script.duration_ms = 2000.0;
  stations[2]->script.rx_trajectory = Trajectory::stationary({9, 5}, 180.0);
  stations[2]->script.interference.push_back(
      {500.0, 1500.0, {{10, 1}, 50.0, 0.5}});

  std::vector<FleetLink> members;
  members.reserve(stations.size());
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.keep_frame_logs = true;
  cfg.faults = faults::demo_plan(fault_seed);
  return run_fleet(members, cfg);
}

std::uint64_t degradation_digest(const FleetResult& result) {
  // FNV-1a 64 over little-endian-independent integer values: feed each
  // field as its own 64-bit quantity, byte by byte, in a fixed order.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xFFULL;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < result.links.size(); ++i) {
    const std::vector<core::FrameReport>& log = result.links[i].frame_log;
    mix(i);
    mix(log.size());
    for (std::size_t f = 0; f < log.size(); ++f) {
      const core::FrameReport& r = log[f];
      mix(f);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.mcs)));
      mix(static_cast<std::uint64_t>(static_cast<int>(r.action)));
      mix(r.ack ? 1u : 0u);
    }
  }
  return h;
}

}  // namespace libra::sim
