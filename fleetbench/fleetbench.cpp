// fleetbench: end-to-end and per-layer benchmark of LiBRA fleet link
// adaptation (sim::run_fleet), one workload per invocation.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR]
//
// The fleet is a closed loop: every tick each active link transmits one
// frame, the fleet batches the feature rows that need a verdict through the
// classifier, and the next tick starts when every verdict is applied. The
// seed picks a fixed list of worlds (client spots, blockers, jammers, walks,
// fading) and the fleets' Rng streams; the trained model is the same on
// every seed.
//
// --trace 0 measures the end-to-end metrics with nothing of the
// benchmark's own in the loop, repeating one world back to back until
// --seconds is up. The repeats are identical work, so what separates their
// times is other load on the host, which only ever adds time: the timings
// are the best repeat -- steady-state link-frames per second of tick time
// and association time per link (the rest of run_fleet's wall time). The
// set-up time is the median of set-ups interleaved with the repeats. Mean
// link goodput is taken over the first run of every world in the list,
// which does not depend on time. --trace 1
// alternates run_fleet (read through the fleet's own telemetry) with the
// benchmark's own serial lockstep loop over the same fleet -- the public
// SessionDriver and classifier calls run_fleet makes -- timing every call
// into a layer, and writes the spans (obs::TraceBuffer) to
// DIR/trace-NAME.json. Either way the sessions are checked against repeats
// and other layouts of the same fleet (check_same), and the last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "env/registry.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "phy/error_model.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/fleet.h"
#include "trace/dataset.h"
#include "trace/features.h"
#include "util/stats.h"

using namespace libra;

namespace {

using Clock = std::chrono::steady_clock;

// Fleet worker threads for run_fleet. Serial: a tick waits for its slowest
// shard, so on a shared host every extra thread is one more chance that a
// busy core stretches the whole tick -- one thread needs one free core.
constexpr int kThreads = 1;
// The traced loop probes the layers under observe() on every kProbeStride-th
// link of a tick.
constexpr std::size_t kProbeStride = 8;

struct Workload {
  const char* name;
  std::size_t links;
  double script_ms;  // session length per link; frames are 10 ms
  int beams;         // codebook size: association sweeps beams^2 pairs
  bool remote;       // decide through a loopback inference daemon
  int shards;        // run_fleet shards; 0 = one per thread
  int worlds;        // fixed worlds per seed that goodput is taken over
};

// 256 links is one loaded 802.11ad AP's association table (8-bit DMG AIDs
// cap it at 254 stations), the scale the per-AP workloads run at.
// steady: 30-frame sessions on small codebooks -- the per-frame
//   observe/decide/apply pipeline dominates, association is amortized.
// storm:  every link associates at once on 25-beam codebooks (625-pair
//   exhaustive sweeps) and then runs only six frames.
// remote: steady's links as 8 access points of 32 stations each; every
//   AP's decide is one round trip to an inference daemon on a unix socket.
//   Few round trips per tick on purpose: each one waits on two thread
//   wake-ups, whose latency on a loaded host would otherwise swamp the
//   fleet's own cost.
// scale:  the controller's view of 16 such APs at once, on the
//   short-session shape of the repo's 10^5-link fleet benchmark (5-beam
//   codebooks, a few frames per link). Its per-link state (world,
//   controller, Rng streams, requests; ~15 KB a link) is ~60 MB, far past
//   the per-core caches, while one fleet run still fits the window several
//   times over; the 10^5-link point takes ~35 s a run.
constexpr Workload kWorkloads[] = {
    {"steady", 256, 300.0, 5, false, 0, 4},
    {"storm", 256, 60.0, 25, false, 0, 4},
    {"remote", 256, 300.0, 5, true, 8, 4},
    {"scale", 4096, 40.0, 5, false, 0, 1},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// splitmix64 of (seed, salt): one independent seed per fleet.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- inputs

// The training campaign (Sec. 5), collected once per process: it is the
// offline measurement step, not part of bringing a fleet up.
struct Campaign {
  phy::McsTable table;
  phy::ErrorModel em{&table};
  trace::Dataset training;

  Campaign() {
    trace::CollectOptions opt;
    opt.seed = 1;
    training = trace::collect_dataset(trace::training_scenarios(), em, opt);
  }
};

// The deployed model, shared by every link's controller. The forest is
// serial too; a parallel fit would make setup_s measure how many cores the
// host has free at that moment.
struct Model {
  const phy::ErrorModel& em;
  core::LibraClassifier classifier{[] {
    core::LibraClassifierConfig cfg;
    cfg.forest.num_threads = 1;
    return cfg;
  }()};

  explicit Model(const Campaign& campaign) : em(campaign.em) {
    util::Rng rng(11);
    classifier.train(campaign.training, trace::GroundTruthConfig{}, rng);
  }
};

// One fleet: every link owns its world (scripts mutate blockers).
struct World {
  std::vector<env::Environment> envs;
  std::vector<array::PhasedArray> arrays;  // [2i] = AP, [2i+1] = client
  std::vector<channel::Link> links;
  std::vector<core::LibraController> controllers;
  std::vector<sim::FleetLink> members;
};

const array::Codebook& codebook(int beams) {
  static std::map<int, std::unique_ptr<array::Codebook>> books;
  std::unique_ptr<array::Codebook>& book = books[beams];
  if (!book) {
    array::CodebookConfig cfg;
    cfg.num_beams = beams;
    book = std::make_unique<array::Codebook>(cfg);
  }
  return *book;
}

// Links cycle through four dynamics (stationary, a blocker crossing the
// LOS, a bursty jammer, a walk facing the AP) and alternate between the
// conference room and the lab; the seed places everything.
std::unique_ptr<World> build_world(const Workload& w, const Model& m,
                                   std::uint64_t seed) {
  static const env::Environment rooms[2] = {env::make_conference_room(),
                                            env::make_lab()};
  const array::Codebook& cb = codebook(w.beams);
  const double d = w.script_ms;
  util::Rng rng(seed);
  auto world = std::make_unique<World>();
  world->envs.reserve(w.links);
  world->arrays.reserve(2 * w.links);
  world->links.reserve(w.links);
  world->controllers.reserve(w.links);
  world->members.reserve(w.links);
  for (std::size_t i = 0; i < w.links; ++i) {
    const env::Environment& room = rooms[(i / 4) % 2];
    const env::Environment::BoundingBox box = room.bounding_box();
    const double width = box.max.x - box.min.x;
    const double height = box.max.y - box.min.y;
    auto spot = [&] {
      return geom::Vec2{box.min.x + width * rng.uniform(0.45, 0.9),
                        box.min.y + height * rng.uniform(0.2, 0.8)};
    };
    const geom::Vec2 ap{box.min.x + 0.8, box.min.y + height * 0.5};
    const geom::Vec2 client = spot();
    const double facing = (ap - client).angle_deg();
    world->envs.push_back(room);
    world->arrays.emplace_back(ap, 0.0, &cb);
    world->arrays.emplace_back(client, facing, &cb);
    world->links.emplace_back(&world->envs[i], &world->arrays[2 * i],
                              &world->arrays[2 * i + 1]);
    world->controllers.emplace_back(&world->links[i], &m.em, &m.classifier);

    sim::FleetLink member{&world->envs[i], &world->links[i],
                          &world->controllers[i], {}};
    sim::SessionScript& s = member.script;
    s.duration_ms = d;
    s.rx_trajectory = sim::Trajectory::stationary(client, facing);
    s.fading = {1.0, 200.0};
    s.fading_seed = rng.engine()();
    const double start = d * rng.uniform(0.1, 0.5);
    const double end = start + d * rng.uniform(0.2, 0.4);
    switch (i % 4) {
      case 1:
        s.blockage.push_back(
            {start, end,
             {ap + (client - ap) * rng.uniform(0.4, 0.7), 0.3,
              rng.uniform(25.0, 35.0)}});
        break;
      case 2:
        s.interference.push_back(
            {start, end, {spot(), rng.uniform(40.0, 55.0),
                          rng.uniform(0.3, 0.8)}});
        break;
      case 3:
        s.rx_trajectory = sim::Trajectory::walk(client, spot(), d, ap);
        break;
      default:
        break;
    }
    world->members.push_back(std::move(member));
  }
  return world;
}

// The decide phase's remote end: an inference daemon on a unix socket in
// the work dir, serving the model's forest, and the client backend.
struct Daemon {
  rpc::DecisionServer server;
  rpc::RemoteBackend backend;

  Daemon(const std::string& socket, const ml::RandomForest& forest)
      : server(server_config(socket)), backend(client_config(socket)) {
    server.set_forest(forest);
    server.start();
    if (!backend.client().hello().has_value()) {
      throw std::runtime_error("daemon at " + socket + " did not answer");
    }
  }
  ~Daemon() { server.stop(); }

  static rpc::ServerConfig server_config(const std::string& socket) {
    rpc::ServerConfig cfg;
    cfg.unix_socket = socket;
    cfg.num_workers = 2;
    return cfg;
  }
  static rpc::ClientConfig client_config(const std::string& socket) {
    rpc::ClientConfig cfg;
    cfg.unix_socket = socket;
    cfg.deadline_ms = 10000.0;  // a busy host must not turn into outages
    return cfg;
  }
};

// ---------------------------------------------------------------- checks

std::uint64_t counter_delta(const obs::MetricsSnapshot& delta,
                            const char* name) {
  const auto* c = delta.find_counter(name);
  return c != nullptr ? c->value : 0;
}

obs::HistogramData histogram_delta(const obs::MetricsSnapshot& delta,
                                   const char* name) {
  const auto* h = delta.find_histogram(name);
  return h != nullptr ? h->data : obs::HistogramData{};
}

// Decisions the fleet could not make as asked: backend outages and
// degraded (rung-2) verdicts. No workload injects faults, so any is a
// failure.
std::int64_t failed_decisions(const obs::MetricsSnapshot& delta) {
  return static_cast<std::int64_t>(
      counter_delta(delta, "rpc.outage_fallbacks") +
      counter_delta(delta, "controller.degraded_decisions"));
}

// The fleet's own telemetry series, summed over the run_fleet passes of a
// traced run (the traced loop's bumps are kept out).
struct FleetTelemetry {
  std::int64_t frames = 0;
  double gather_us = 0.0;
  double decide_us = 0.0;
  double scatter_us = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t ba = 0;
  std::uint64_t ra = 0;
  obs::HistogramData batch_rows;
  obs::HistogramData rpc_rtt_us;

  void add(const obs::MetricsSnapshot& delta, std::int64_t link_frames) {
    frames += link_frames;
    gather_us += histogram_delta(delta, "fleet.gather_us").sum;
    decide_us += histogram_delta(delta, "fleet.decide_us").sum;
    scatter_us += histogram_delta(delta, "fleet.scatter_us").sum;
    rows += counter_delta(delta, "fleet.batched_rows");
    ba += counter_delta(delta, "controller.verdict.ba");
    ra += counter_delta(delta, "controller.verdict.ra");
    batch_rows.merge(histogram_delta(delta, "classifier.batch_size"));
    rpc_rtt_us.merge(histogram_delta(delta, "rpc.client.rtt_us"));
  }
};

// Per-link outcomes must agree bit for bit: the determinism contract says
// any (shards, threads, backend) layout of the same fleet, and the
// benchmark's own serial loop, produce the same sessions.
bool check_same(const std::vector<sim::SessionResult>& a,
                const std::vector<sim::SessionResult>& b, const char* what) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].frames == b[i].frames &&
           a[i].adaptations_ba == b[i].adaptations_ba &&
           a[i].adaptations_ra == b[i].adaptations_ra &&
           a[i].outages == b[i].outages &&
           std::memcmp(&a[i].bytes_mb, &b[i].bytes_mb, sizeof(double)) == 0 &&
           std::memcmp(&a[i].total_outage_ms, &b[i].total_outage_ms,
                       sizeof(double)) == 0;
    if (!same) {
      std::fprintf(stderr, "fleetbench: %s differs at link %zu\n", what, i);
    }
  }
  if (a.size() != b.size()) {
    std::fprintf(stderr, "fleetbench: %s link counts differ\n", what);
  }
  return same;
}

// Every link ran its session: at least one frame each, and the frame
// totals add up.
bool check_sessions(const sim::FleetResult& r, const Workload& w) {
  std::int64_t frames = 0;
  bool ok = r.links.size() == w.links && r.ticks > 0;
  for (const sim::SessionResult& s : r.links) {
    ok = ok && s.frames > 0;
    frames += s.frames;
  }
  ok = ok && frames == r.link_frames;
  if (!ok) std::fprintf(stderr, "fleetbench: inconsistent fleet result\n");
  return ok;
}

// ---------------------------------------------------------------- layers

// Time spent per layer call in the traced loop. The timed calls never nest,
// so a call's time is its own. Each call is also a span in the program's
// trace buffer, under the tick's span.
class LayerTimes {
  struct Total {
    double seconds = 0.0;
    std::int64_t calls = 0;
  };

 public:
  // The name is looked up and the span opened before the clock starts.
  class Scope {
   public:
    Scope(LayerTimes& times, const char* name)
        : total_(times.totals_[name]), span_(name), start_(Clock::now()) {}
    ~Scope() {
      total_.seconds += seconds_since(start_);
      ++total_.calls;
    }

   private:
    Total& total_;
    obs::SpanGuard span_;
    Clock::time_point start_;
  };

  // Mean time per call of this name, in microseconds.
  double mean_us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() || it->second.calls == 0
               ? 0.0
               : 1e6 * it->second.seconds /
                     static_cast<double>(it->second.calls);
  }
  double total_us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : 1e6 * it->second.seconds;
  }

 private:
  std::map<std::string, Total> totals_;
};

// The fleet pipeline run_fleet executes, serially on this thread, with each
// call into a layer timed: association (MAC sweep + MCS walk), observe
// (dynamics, ray-traced channel, PHY sampling, features), one batched
// decide per shard (forest inference, in-process or over the socket) and
// apply (MAC verdict mechanics). On every kProbeStride-th link the layers
// under observe are timed one by one, on the link's state after its
// observe and with a private Rng, so the simulation is not perturbed.
std::vector<sim::SessionResult> traced_fleet(World& world, const Model& m,
                                             std::uint64_t fleet_seed,
                                             std::size_t shards,
                                             core::DecisionBackend* backend,
                                             LayerTimes& times,
                                             std::int64_t& rows_out) {
  const std::size_t n = world.members.size();
  util::Rng fleet_rng(fleet_seed);
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(fleet_rng.fork());
  std::vector<sim::SessionDriver> drivers;
  drivers.reserve(n);
  for (const sim::FleetLink& l : world.members) {
    drivers.emplace_back(*l.environment, *l.link, *l.controller, l.script);
  }

  const phy::PhySampler sampler(&m.em);
  util::Rng probe_rng(fleet_seed ^ 0x5eedULL);
  std::optional<phy::PhyObservation> last_probe;

  for (std::size_t i = 0; i < n; ++i) {
    LayerTimes::Scope t(times, "assoc");
    drivers[i].start(rngs[i]);
  }

  std::vector<core::DecisionRequest> requests(n);
  std::vector<unsigned char> active(n, 0);
  std::vector<trace::Action> verdicts(n, trace::Action::kNA);
  std::vector<trace::FeatureVector> rows;
  std::vector<util::Rng*> row_rngs;
  std::vector<std::size_t> row_link;
  for (std::size_t tick = 0;; ++tick) {
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      active[i] = !drivers[i].done();
      any = any || active[i];
    }
    if (!any) break;
    OBS_SPAN("bench.tick");
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      {
        LayerTimes::Scope t(times, "observe");
        requests[i] = drivers[i].observe(rngs[i]);
      }
      if (!requests[i].needs_inference()) {
        verdicts[i] = requests[i].resolved_without_inference();
      }
      if ((i + tick) % kProbeStride != 0) continue;
      channel::Link& link = *world.members[i].link;
      const core::LinkController& c = *world.members[i].controller;
      {
        LayerTimes::Scope t(times, "probe.ray_trace");
        link.refresh();
      }
      {
        LayerTimes::Scope t(times, "probe.channel");
        (void)link.snr_clean_db(c.tx_beam(), c.rx_beam());
      }
      phy::PhyObservation obs;
      {
        LayerTimes::Scope t(times, "probe.phy");
        obs = sampler.observe(link, c.tx_beam(), c.rx_beam(), c.mcs(),
                              probe_rng);
      }
      if (last_probe.has_value()) {
        LayerTimes::Scope t(times, "probe.features");
        (void)trace::aligned_pdp_similarity(last_probe->pdp, obs.pdp);
        (void)util::pearson(last_probe->csi, obs.csi);
      }
      last_probe = std::move(obs);
    }
    // Shard s covers links [s*n/shards, (s+1)*n/shards) -- the same
    // batches as run_fleet's contiguous shards, up to where the remainder
    // links fall, which the determinism contract makes irrelevant.
    for (std::size_t s = 0; s < shards; ++s) {
      rows.clear();
      row_rngs.clear();
      row_link.clear();
      for (std::size_t i = s * n / shards; i < (s + 1) * n / shards; ++i) {
        if (!active[i] || !requests[i].needs_inference()) continue;
        rows.push_back(requests[i].features);
        row_rngs.push_back(&rngs[i]);
        row_link.push_back(i);
      }
      if (rows.empty()) continue;
      std::vector<trace::Action> batch;
      {
        LayerTimes::Scope t(times, "decide");
        batch = m.classifier.classify_batch(rows, row_rngs, backend);
      }
      for (std::size_t r = 0; r < batch.size(); ++r) {
        verdicts[row_link[r]] = batch[r];
      }
      rows_out += static_cast<std::int64_t>(rows.size());
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      LayerTimes::Scope t(times, "apply");
      drivers[i].apply(verdicts[i], requests[i], rngs[i]);
    }
  }
  std::vector<sim::SessionResult> results;
  results.reserve(n);
  for (sim::SessionDriver& d : drivers) results.push_back(d.finish());
  return results;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) {
        throw std::invalid_argument("unknown workload '" + val + "'");
      }
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
      have_seconds = o.seconds > 0.0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = val == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else {
      throw std::invalid_argument("unknown option '" + key + "'");
    }
  }
  if (argc % 2 == 0 || o.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    throw std::invalid_argument(
        "usage: fleetbench --workload steady|storm|remote|scale --seed N "
        "--seconds S --trace 0|1 [--work-dir DIR]");
  }
  return o;
}

sim::FleetConfig fleet_config(const Workload& w, std::uint64_t fleet_seed,
                              core::DecisionBackend* backend) {
  sim::FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.shards = w.shards;
  cfg.num_threads = kThreads;
  cfg.backend = backend;
  return cfg;
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  const Campaign campaign;

  // One set-up: train the model on the campaign, build world 0, and
  // (remote) bring an inference daemon up on a socket of its own. The first
  // set-up serves the run. In --trace 0 one more is timed and dropped after
  // every timed fleet run, so setup_s samples the same stretch of host time
  // as the fleet metrics.
  struct Setup {
    std::unique_ptr<Model> model;
    std::unique_ptr<World> world;
    std::unique_ptr<Daemon> daemon;
  };
  std::vector<double> setup_s;
  auto set_up = [&] {
    const std::string socket = o.work_dir + "/fleetbench-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(setup_s.size()) + ".sock";
    const Clock::time_point t0 = Clock::now();
    Setup s;
    s.model = std::make_unique<Model>(campaign);
    s.world = build_world(w, *s.model, mix(o.seed, 0));
    if (w.remote) {
      s.daemon = std::make_unique<Daemon>(socket, s.model->classifier.forest());
    }
    setup_s.push_back(seconds_since(t0));
    return s;
  };
  const Setup setup = set_up();
  const Model& model = *setup.model;
  core::DecisionBackend* backend =
      setup.daemon ? &setup.daemon->backend : nullptr;

  // The fixed world list: world j is built from mix(seed, 2j) and run on
  // streams forked from mix(seed, 2j + 1). Each world runs once, untimed,
  // before the window: the warm-up (allocator arenas, first touches, the
  // daemon's first batches) and the sessions goodput_mbps is taken from.
  // The window then repeats world 0 alone, so its timings differ only by
  // host noise, and every repeat must reproduce world 0's sessions bit for
  // bit.
  auto world_of = [&](std::size_t j) {
    return build_world(w, model, mix(o.seed, 2 * j));
  };
  auto config_of = [&](std::size_t j, core::DecisionBackend* b) {
    return fleet_config(w, mix(o.seed, 2 * j + 1), b);
  };
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  obs::Registry& registry = obs::Registry::global();
  std::vector<std::vector<sim::SessionResult>> first;
  for (std::size_t j = 0; j < static_cast<std::size_t>(w.worlds); ++j) {
    std::unique_ptr<World> world = world_of(j);
    const obs::MetricsSnapshot before = registry.snapshot();
    sim::FleetResult r = sim::run_fleet(world->members, config_of(j, backend));
    failed += failed_decisions(registry.snapshot().delta_since(before));
    attempted += r.link_frames;
    correct = check_sessions(r, w) && correct;
    first.push_back(std::move(r.links));
  }
  const Clock::time_point start = Clock::now();

  if (!o.trace) {
    std::vector<double> frames_per_s, assoc_us;
    for (int k = 0; k == 0 || seconds_since(start) < o.seconds; ++k) {
      std::unique_ptr<World> world = world_of(0);
      const obs::MetricsSnapshot before = registry.snapshot();
      const Clock::time_point t0 = Clock::now();
      const sim::FleetResult r =
          sim::run_fleet(world->members, config_of(0, backend));
      const double wall_s = seconds_since(t0);
      failed += failed_decisions(registry.snapshot().delta_since(before));
      attempted += r.link_frames;
      const double tick_s = r.tick_latency_us.mean() *
                            static_cast<double>(r.tick_latency_us.count()) /
                            1e6;
      frames_per_s.push_back(static_cast<double>(r.link_frames) / tick_s);
      assoc_us.push_back(1e6 * (wall_s - tick_s) /
                         static_cast<double>(w.links));
      correct = check_sessions(r, w) &&
                check_same(first[0], r.links, "repeat of world 0") && correct;
      world.reset();
      set_up();
    }
    // Replay world 0 on another layout -- three shards, serial, in-process
    // inference -- and demand the same sessions.
    {
      std::unique_ptr<World> world = world_of(0);
      sim::FleetConfig cfg = config_of(0, nullptr);
      cfg.shards = 3;
      correct = check_same(first[0],
                           sim::run_fleet(world->members, cfg).links,
                           "replay on another layout") &&
                correct;
    }
    double goodput = 0.0;
    for (const std::vector<sim::SessionResult>& links : first) {
      for (const sim::SessionResult& s : links) goodput += s.avg_goodput_mbps;
    }
    goodput /= static_cast<double>(first.size() * w.links);
    metrics = {{"frames_per_s",
                *std::max_element(frames_per_s.begin(), frames_per_s.end()),
                "1/s"},
               {"assoc_us_per_link",
                *std::min_element(assoc_us.begin(), assoc_us.end()), "us"},
               {"goodput_mbps", goodput, "Mbps"},
               {"setup_s", median(setup_s), "s"}};
    std::fprintf(stderr, "fleetbench: %s seed %llu: %zu timed runs\n", w.name,
                 static_cast<unsigned long long>(o.seed), frames_per_s.size());
  } else {
    // Alternate run_fleet with the traced loop on world 0: run_fleet gives
    // the program's own telemetry, the loop the per-layer times, and their
    // sessions must agree.
    LayerTimes times;
    FleetTelemetry fleet;
    std::int64_t traced_frames = 0, traced_rows = 0;
    for (int k = 0; k == 0 || seconds_since(start) < o.seconds; ++k) {
      std::unique_ptr<World> world = world_of(0);
      const obs::MetricsSnapshot before = registry.snapshot();
      const sim::FleetResult r =
          sim::run_fleet(world->members, config_of(0, backend));
      const obs::MetricsSnapshot delta =
          registry.snapshot().delta_since(before);
      failed += failed_decisions(delta);
      fleet.add(delta, r.link_frames);
      correct = check_sessions(r, w) &&
                check_same(first[0], r.links, "repeat of world 0") && correct;

      world = world_of(0);
      const obs::MetricsSnapshot traced_before = registry.snapshot();
      const std::vector<sim::SessionResult> traced = traced_fleet(
          *world, model, mix(o.seed, 1),
          static_cast<std::size_t>(r.shards_used), backend, times,
          traced_rows);
      failed +=
          failed_decisions(registry.snapshot().delta_since(traced_before));
      for (const sim::SessionResult& s : traced) traced_frames += s.frames;
      correct =
          check_same(r.links, traced, "traced loop vs run_fleet") && correct;
    }
    attempted += fleet.frames + traced_frames;
    const double frames = static_cast<double>(fleet.frames);
    const double rows =
        static_cast<double>(std::max<std::int64_t>(traced_rows, 1));
    metrics = {
        {"assoc_us", times.mean_us("assoc"), "us"},
        {"observe_us", times.mean_us("observe"), "us"},
        {"decide_us_per_row", times.total_us("decide") / rows, "us"},
        {"apply_us", times.mean_us("apply"), "us"},
        {"probe_ray_trace_us", times.mean_us("probe.ray_trace"), "us"},
        {"probe_channel_us", times.mean_us("probe.channel"), "us"},
        {"probe_phy_us", times.mean_us("probe.phy"), "us"},
        {"probe_features_us", times.mean_us("probe.features"), "us"},
        {"fleet_gather_us_per_frame", fleet.gather_us / frames, "us"},
        {"fleet_decide_us_per_frame", fleet.decide_us / frames, "us"},
        {"fleet_scatter_us_per_frame", fleet.scatter_us / frames, "us"},
        {"rows_per_batch", fleet.batch_rows.mean(), "count"},
        {"rows_per_kframe", 1e3 * static_cast<double>(fleet.rows) / frames,
         "count"},
        {"ba_per_kframe", 1e3 * static_cast<double>(fleet.ba) / frames,
         "count"},
        {"ra_per_kframe", 1e3 * static_cast<double>(fleet.ra) / frames,
         "count"},
        {"rpc_rtt_us", fleet.rpc_rtt_us.mean(), "us"},
    };
    obs::TraceBuffer::global().write_chrome_json(o.work_dir + "/trace-" +
                                                 w.name + ".json");
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }
}
