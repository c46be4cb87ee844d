// AP-side fleet serving: one trained LiBRA classifier makes decisions for
// eight associated stations at once. Every lockstep tick, each station's
// controller observes its own channel (walking clients, a blocker crossing
// one beam, a jammer near another), the fleet gathers the pending feature
// rows, and a single batched forest pass returns every verdict -- the
// multi-STA deployment the observe/decide/apply split exists for.
//
// Usage: fleet_serving [--trace-out FILE] [--faults SEED]
//                      [--shards N] [--threads N] [--backend remote:ADDR]
//   --trace-out FILE   write the run's trace spans as Chrome trace-event
//                      JSON (open in Perfetto or chrome://tracing)
//   --faults SEED      attach the demo fault schedule (faults::demo_plan
//                      seeded from SEED): ACK loss bursts, garbage PHY,
//                      a classifier outage window -- and watch the
//                      degradation ladder fire in the telemetry scrape
//   --shards N         shard count for the fleet engine (0 = one per
//                      worker thread); results are bit-identical for any N
//   --threads N        worker threads for shard ticks (1 = serial,
//                      0 = hardware concurrency); also bit-identical
//   --backend remote:ADDR
//                      serve the decide phase through a running
//                      `libra serve` daemon (unix:PATH, /path, HOST:PORT).
//                      The example pushes its own trained forest first, so
//                      a loopback run is bit-identical to in-process; a
//                      dead daemon degrades to the RA-first fallback
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "env/registry.h"
#include "obs/span.h"
#include "phy/error_model.h"
#include "rpc/client.h"
#include "sim/fleet.h"
#include "trace/dataset.h"
#include "util/cli.h"

using namespace libra;

int main(int argc, char** argv) {
  const util::CliArgs args = util::CliArgs::parse(argc, argv);
  args.require_known({"trace-out", "faults", "shards", "threads", "backend"});
  phy::McsTable table;
  phy::ErrorModel em(&table);
  const trace::Dataset training =
      trace::collect_dataset(trace::training_scenarios(), em, {});
  trace::GroundTruthConfig gt;
  util::Rng rng(11);
  core::LibraClassifier classifier;  // shared by the whole fleet
  classifier.train(training, gt, rng);

  constexpr int kStations = 8;
  const array::Codebook codebook;

  // Each station gets its own copy of the world: the AP at one end of the
  // lobby, the client somewhere along the far wall.
  std::vector<env::Environment> envs;
  std::vector<array::PhasedArray> aps, clients;
  std::vector<channel::Link> links;
  std::vector<core::LibraController> controllers;
  envs.reserve(kStations);
  aps.reserve(kStations);
  clients.reserve(kStations);
  links.reserve(kStations);
  controllers.reserve(kStations);
  for (int s = 0; s < kStations; ++s) {
    envs.push_back(env::make_lobby());
    aps.emplace_back(geom::Vec2{2.0, 6.0}, 0.0, &codebook);
    clients.emplace_back(geom::Vec2{8.0 + s, 4.0 + (s % 3)}, 180.0,
                         &codebook);
    links.emplace_back(&envs[s], &aps[s], &clients[s]);
    controllers.emplace_back(&links[s], &em, &classifier);
  }

  std::vector<sim::FleetLink> fleet(kStations);
  for (int s = 0; s < kStations; ++s) {
    fleet[s] = {&envs[s], &links[s], &controllers[s], {}};
    fleet[s].script.duration_ms = 8000.0;
    fleet[s].script.rx_trajectory = sim::Trajectory::stationary(
        clients[s].position(), clients[s].boresight_deg());
  }
  // Station 2 walks away; a person blocks station 5; station 7 gets jammed.
  fleet[2].script.rx_trajectory =
      sim::Trajectory::walk({10, 4}, {20, 8}, 8000.0, geom::Vec2{2, 6});
  fleet[5].script.blockage.push_back({2000, 5000, {{6, 6}, 0.3, 35.0}});
  fleet[7].script.interference.push_back({3000, 6000, {{14, 3}, 55.0, 0.5}});

  sim::FleetConfig cfg;
  cfg.seed = 42;
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  cfg.shards = static_cast<int>(args.integer("shards", 0, 0, kMaxInt));
  cfg.num_threads = static_cast<int>(args.integer("threads", 1, 0, 1024));
  if (args.flag("faults")) {
    cfg.faults = faults::demo_plan(static_cast<std::uint64_t>(args.integer(
        "faults", 1, 0, std::numeric_limits<std::int64_t>::max())));
  }
  std::optional<rpc::RemoteBackend> remote;
  const std::string backend_spec = args.str("backend");
  if (!backend_spec.empty()) {
    if (backend_spec.rfind("remote:", 0) != 0) {
      std::fprintf(stderr, "--backend expects remote:ADDR, got '%s'\n",
                   backend_spec.c_str());
      return 2;
    }
    remote.emplace(rpc::parse_remote_addr(backend_spec.substr(7)));
    const std::optional<rpc::AckMsg> ack =
        remote->client().push_model(classifier.forest());
    if (ack.has_value() && !ack->ok) {
      std::fprintf(stderr, "daemon rejected the model: %s\n",
                   ack->message.c_str());
      return 1;
    }
    std::printf("decide phase served by %s%s\n",
                remote->client().address().c_str(),
                ack.has_value() ? "" : " (unreachable -- will degrade)");
    cfg.backend = &*remote;
  }
  const sim::FleetResult result = sim::run_fleet(fleet, cfg);

  std::printf("fleet of %d stations in %d shard(s), %lld lockstep ticks, "
              "%lld feature rows served in batches%s\n\n",
              kStations, result.shards_used,
              static_cast<long long>(result.ticks),
              static_cast<long long>(result.batched_rows),
              cfg.faults.empty() ? "" : " (demo fault schedule attached)");
  std::printf("%-8s %-10s %-8s %-6s %-6s %-8s %s\n", "station", "goodput",
              "bytes", "BA", "RA", "outages", "outage ms");
  for (int s = 0; s < kStations; ++s) {
    const sim::SessionResult& r = result.links[s];
    std::printf("%-8d %-10.0f %-8.0f %-6lld %-6lld %-8lld %.0f\n", s,
                r.avg_goodput_mbps, r.bytes_mb,
                static_cast<long long>(r.adaptations_ba),
                static_cast<long long>(r.adaptations_ra),
                static_cast<long long>(r.outages), r.total_outage_ms);
  }
  std::printf("\ntick latency: mean %.1f us, p0 %.1f us, max %.1f us over "
              "%zu ticks\n",
              result.tick_latency_us.mean(), result.tick_latency_us.min(),
              result.tick_latency_us.max(), result.tick_latency_us.count());

  // The scrape rode back on the result; dump it like a /metrics endpoint.
  std::printf("\n--- telemetry scrape ---\n%s",
              result.metrics.to_text().c_str());

  const std::string trace_path = args.str("trace-out");
  if (!trace_path.empty()) {
    obs::TraceBuffer::global().write_chrome_json(trace_path);
    std::printf("wrote %zu trace events to %s\n",
                obs::TraceBuffer::global().event_count(), trace_path.c_str());
  }
  return 0;
}
