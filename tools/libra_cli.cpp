// libra — command-line front end for the LiBRA framework.
//
//   libra collect <out.ds> [--testing] [--seed N] [--frames N] [--no-na]
//       Run the measurement campaign (training scenarios by default) and
//       save the dataset.
//   libra summarize <ds> [--alpha A]
//       Print the Table-1 style summary of a saved dataset.
//   libra train <ds> <out.forest> [--three-class] [--trees N] [--alpha A]
//       Train a random forest on a saved dataset and save the model.
//   libra eval <forest> <ds> [--three-class] [--alpha A]
//       Evaluate a saved model on a saved dataset (accuracy, F1, confusion).
//   libra export-csv <ds> [--alpha A]
//       Dump the labeled feature matrix as CSV to stdout.
//   libra simulate <train.ds> <eval.ds> [--ba MS] [--fat MS] [--flow MS]
//       Trace-driven comparison of all five strategies (Sec. 8 style).
//   libra serve <forest> --socket PATH | --port N [--host H] [--workers N]
//       Run the inference daemon: serve batched classify RPCs for the
//       saved forest until SIGINT/SIGTERM (ROADMAP item 2, the
//       controller/minion split). --metrics-port N additionally mounts the
//       observability tier on 127.0.0.1:N: GET /metrics (Prometheus),
//       /healthz, /series.json.
//   libra top HOST:PORT [--interval-ms N] [--once]
//       Live fleet dashboard: poll /series.json from a scrape endpoint
//       (a `libra serve --metrics-port` daemon or a fleet run with
//       FleetConfig::scrape_port / `simulate --scrape-port`) and render
//       links/s, tick p99, degraded/fallback rates, per-MCS occupancy, and
//       -- when the origin runs an online FleetTrainer -- the trainer panel
//       (generation, drift score, holdout accuracies, swap counts).
//       --once prints a single frame and exits (CI smoke uses this).
//
// `collect` and `simulate` additionally take telemetry flags:
//   --metrics          print a Prometheus-format scrape of the run's
//                      counters/histograms to stdout at the end
//   --trace-out FILE   write buffered trace spans as Chrome trace-event
//                      JSON (open in Perfetto or chrome://tracing)
// `simulate` also accepts:
//   --faults SEED      run the fleet stage under the demo fault schedule
//                      (faults::demo_plan seeded from SEED) and report how
//                      many faults were injected
//   --backend remote:ADDR
//                      serve the fleet stage's decide phase through a
//                      running `libra serve` daemon (unix:PATH, /path, or
//                      HOST:PORT). The trained forest is pushed to the
//                      daemon first, so a loopback run is bit-identical to
//                      local -- the printed fleet digest proves it.
//   --scrape-port N    mount the live scrape endpoint on 127.0.0.1:N for
//                      the fleet stage (FleetConfig::scrape_port); with
//                      --backend the daemon's stats are merged in under
//                      its own origin label.
//   --online-fleet     attach a free-running background trainer to the
//                      fleet stage (core/trainer.h): shards sample a seeded
//                      subset of inference decisions into hindsight-labeled
//                      rows, the trainer refits candidates off-path, and a
//                      drift+accuracy-gated swap publishes through the
//                      generation-tagged ModelSlot the fleet serves from.
//                      With --backend remote:ADDR every shipped candidate
//                      is also pushed to the daemon (ModelPush).
// Unrecognized options fail any command with exit code 2.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/controller.h"
#include "core/trainer.h"
#include "env/registry.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/span.h"
#include "phy/error_model.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/event_sim.h"
#include "sim/fleet.h"
#include "sim/golden.h"
#include "trace/io.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

using namespace libra;

namespace {

// --key value / --flag / positional parsing, shared with the examples.
// argv[1] is the subcommand, so parsing starts at index 2.
using Args = util::CliArgs;

// Ranges of the integer options, checked by CliArgs::integer before any
// cast: a TCP port, a count that must fit an int, and a 64-bit seed.
constexpr std::int64_t kMaxPort = 65535;
constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();

std::uint64_t seed_arg(const Args& args, const std::string& key) {
  return static_cast<std::uint64_t>(args.integer(key, 1, 0, kMaxSeed));
}
int int_arg(const Args& args, const std::string& key, int fallback,
            std::int64_t lo, std::int64_t hi) {
  return static_cast<int>(args.integer(key, fallback, lo, hi));
}

// Honour --metrics / --trace-out at the end of a command.
void dump_telemetry(const Args& args) {
  if (args.flag("metrics")) {
    std::fputs(obs::Registry::global().snapshot().to_prometheus().c_str(),
               stdout);
  }
  const std::string trace_path = args.str("trace-out");
  if (!trace_path.empty()) {
    obs::TraceBuffer::global().write_chrome_json(trace_path);
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 obs::TraceBuffer::global().event_count(),
                 trace_path.c_str());
  }
}

trace::GroundTruthConfig ground_truth_from(const Args& args) {
  trace::GroundTruthConfig gt;
  gt.alpha = args.number("alpha", 1.0);
  gt.fat_ms = args.number("fat", 10.0);
  gt.ba_overhead_ms = args.number("ba", 5.0);
  return gt;
}

ml::DataSet to_ml(const std::vector<trace::LabeledEntry>& entries,
                  bool three_class) {
  ml::DataSet d(trace::FeatureVector::kDim);
  for (const auto& e : entries) {
    d.add(e.x.v, three_class
                     ? core::LibraClassifier::to_label(e.y)
                     : (e.y == trace::Action::kBA ? 0 : 1));
  }
  return d;
}

int cmd_collect(const Args& args) {
  args.require_known({"testing", "seed", "frames", "no-na", "metrics",
                      "trace-out"});
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: libra collect <out.ds> [--testing]\n");
    return 2;
  }
  phy::McsTable table;
  phy::ErrorModel em(&table);
  trace::CollectOptions opt;
  opt.seed = seed_arg(args, "seed");
  opt.collector.frames_per_trace = int_arg(args, "frames", 100, 1, kMaxInt);
  opt.with_na_augmentation = !args.flag("no-na");
  const trace::ScenarioSet scenarios =
      args.flag("testing") ? trace::testing_scenarios()
                           : trace::training_scenarios();
  std::printf("collecting %zu cases...\n", scenarios.cases.size());
  const trace::Dataset ds = trace::collect_dataset(scenarios, em, opt);
  trace::save_dataset_file(ds, args.positional[0]);
  std::printf("saved %zu records (+%zu NA) to %s\n", ds.records.size(),
              ds.na_records.size(), args.positional[0].c_str());
  dump_telemetry(args);
  return 0;
}

int cmd_summarize(const Args& args) {
  args.require_known({"alpha", "fat", "ba"});
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: libra summarize <ds>\n");
    return 2;
  }
  const trace::Dataset ds = trace::load_dataset_file(args.positional[0]);
  const auto s = trace::summarize(ds, ground_truth_from(args));
  util::Table t({"impairment", "cases", "BA", "RA", "positions"});
  const std::pair<const char*, const trace::DatasetSummaryRow*> rows[] = {
      {"displacement", &s.displacement},
      {"blockage", &s.blockage},
      {"interference", &s.interference},
      {"overall", &s.overall}};
  for (const auto& [name, row] : rows) {
    t.add_row({name, std::to_string(row->total), std::to_string(row->ba),
               std::to_string(row->ra), std::to_string(row->positions)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}

int cmd_train(const Args& args) {
  args.require_known({"three-class", "trees", "seed", "alpha", "fat", "ba"});
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: libra train <ds> <out.forest>\n");
    return 2;
  }
  const trace::Dataset ds = trace::load_dataset_file(args.positional[0]);
  const trace::GroundTruthConfig gt = ground_truth_from(args);
  const bool three = args.flag("three-class");
  const ml::DataSet data =
      to_ml(three ? ds.labeled3(gt) : ds.labeled(gt), three);
  ml::RandomForestConfig cfg;
  cfg.num_trees = int_arg(args, "trees", 60, 1, kMaxInt);
  ml::RandomForest forest(cfg);
  util::Rng rng(seed_arg(args, "seed"));
  forest.fit(data, rng);
  ml::save_forest_file(forest, args.positional[1]);
  std::printf("trained %d-tree %s forest on %zu entries -> %s\n",
              cfg.num_trees, three ? "3-class" : "2-class", data.size(),
              args.positional[1].c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  args.require_known({"three-class", "alpha", "fat", "ba"});
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: libra eval <forest> <ds>\n");
    return 2;
  }
  const ml::RandomForest forest =
      ml::load_forest_file(args.positional[0]);
  const trace::Dataset ds = trace::load_dataset_file(args.positional[1]);
  const trace::GroundTruthConfig gt = ground_truth_from(args);
  const bool three = args.flag("three-class");
  const ml::DataSet data =
      to_ml(three ? ds.labeled3(gt) : ds.labeled(gt), three);
  const std::vector<ml::Label> pred = forest.predict_all(data);
  std::printf("accuracy %.1f%%, weighted F1 %.1f%% on %zu entries\n",
              100 * ml::accuracy(data.labels(), pred),
              100 * ml::weighted_f1(data.labels(), pred), data.size());
  const auto cm = ml::confusion_matrix(data.labels(), pred);
  const char* names3[] = {"BA", "RA", "NA"};
  const char* names2[] = {"BA", "RA"};
  const char** names = three ? names3 : names2;
  std::printf("confusion (rows=truth):\n");
  for (std::size_t r = 0; r < cm.size(); ++r) {
    std::printf("  %-3s", names[r]);
    for (std::size_t c = 0; c < cm.size(); ++c) std::printf(" %5d", cm[r][c]);
    std::printf("\n");
  }
  return 0;
}

int cmd_export_csv(const Args& args) {
  args.require_known({"alpha", "fat", "ba"});
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: libra export-csv <ds>\n");
    return 2;
  }
  const trace::Dataset ds = trace::load_dataset_file(args.positional[0]);
  trace::write_feature_csv(ds, ground_truth_from(args), std::cout);
  return 0;
}

// Telemetry demo stage for `simulate --metrics/--trace-out`: the event
// simulator never touches the fleet serving path, so run the trained
// classifier through a small lockstep fleet too -- the scrape and trace
// then cover gather/decide/scatter and batched inference as deployed.
void run_fleet_stage(core::LibraClassifier& classifier, std::uint64_t seed,
                     const faults::FaultPlan* faults_plan = nullptr,
                     core::DecisionBackend* backend = nullptr,
                     int scrape_port = 0,
                     core::FleetTrainer* trainer = nullptr) {
  constexpr int kStations = 4;
  phy::McsTable table;
  phy::ErrorModel em(&table);
  const array::Codebook codebook;
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
    fleet[s].script.duration_ms = 2000.0;
    fleet[s].script.rx_trajectory = sim::Trajectory::stationary(
        clients[s].position(), clients[s].boresight_deg());
  }
  // One walker and one blocked station so the fleet actually batches
  // inference rows (stationary links rarely trip the classifier).
  fleet[1].script.rx_trajectory =
      sim::Trajectory::walk({9, 4}, {16, 7}, 2000.0, geom::Vec2{2, 6});
  fleet[3].script.blockage.push_back({500, 1500, {{6, 6}, 0.3, 35.0}});

  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.keep_frame_logs = true;  // feeds the digest below
  cfg.backend = backend;
  cfg.scrape_port = scrape_port;
  if (faults_plan != nullptr) cfg.faults = *faults_plan;
  if (trainer != nullptr) {
    // Online fleet: the trainer samples the row stream AND serves the
    // decide phase through its generation-tagged slot -- a remote daemon
    // (if any) receives shipped candidates via set_remote_push instead of
    // answering vote batches.
    cfg.trainer = trainer;
    cfg.backend = trainer->backend();
  }
  if (scrape_port > 0) {
    std::printf("fleet scrape: http://127.0.0.1:%d/metrics (also /healthz, "
                "/series.json)\n", scrape_port);
    std::fflush(stdout);
  }
  const sim::FleetResult result = sim::run_fleet(fleet, cfg);
  std::printf("fleet stage: %d stations, %lld ticks, %lld batched rows\n",
              kStations, static_cast<long long>(result.ticks),
              static_cast<long long>(result.batched_rows));
  // The frame-log fold: identical decisions (local vs remote loopback, any
  // shard/thread grid) print identical digests. CI greps this line.
  std::printf("fleet digest: 0x%016llx (backend=%s)\n",
              static_cast<unsigned long long>(
                  sim::degradation_digest(result)),
              cfg.backend != nullptr
                  ? std::string(cfg.backend->name()).c_str()
                  : "local");
  if (trainer != nullptr) {
    std::printf("online trainer: generation %llu, %llu rows sampled "
                "(%llu dropped), %llu fits, %llu shipped / %llu rejected, "
                "drift %.3f\n",
                static_cast<unsigned long long>(trainer->generation()),
                static_cast<unsigned long long>(trainer->rows_sampled()),
                static_cast<unsigned long long>(trainer->rows_dropped()),
                static_cast<unsigned long long>(trainer->fits()),
                static_cast<unsigned long long>(trainer->swaps_shipped()),
                static_cast<unsigned long long>(trainer->swaps_rejected()),
                trainer->drift_score());
  }
  if (faults_plan != nullptr) {
    const auto* injected = result.metrics.find_counter("faults.injected");
    std::printf("fault stage: plan seed %llu, %llu faults injected "
                "(process-cumulative)\n",
                static_cast<unsigned long long>(faults_plan->seed),
                static_cast<unsigned long long>(
                    injected != nullptr ? injected->value : 0));
  }
}

int cmd_simulate(const Args& args) {
  args.require_known({"ba", "fat", "flow", "alpha", "seed", "metrics",
                      "trace-out", "faults", "backend", "scrape-port",
                      "online-fleet"});
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: libra simulate <train.ds> <eval.ds>\n");
    return 2;
  }
  const trace::Dataset train = trace::load_dataset_file(args.positional[0]);
  const trace::Dataset eval = trace::load_dataset_file(args.positional[1]);
  const trace::GroundTruthConfig gt = ground_truth_from(args);
  sim::EventParams params;
  params.ba_overhead_ms = gt.ba_overhead_ms;
  params.fat_ms = gt.fat_ms;
  params.flow_ms = args.number("flow", 1000.0);

  util::Rng rng(seed_arg(args, "seed"));
  core::LibraClassifier classifier;
  classifier.train(train, gt, rng);
  const sim::EventSimulator simulator(&classifier);

  util::Table t({"strategy", "total MB", "avg recovery ms", "restored"});
  for (core::Strategy s : core::kAllStrategies) {
    double bytes = 0.0, delay = 0.0;
    int broken = 0, restored = 0;
    for (const trace::CaseRecord& rec : eval.records) {
      const sim::EventResult r = simulator.run(rec, s, params, rng);
      bytes += r.bytes_mb;
      if (r.recovery_delay_ms > 0.0) {
        ++broken;
        delay += r.recovery_delay_ms;
        restored += r.link_restored;
      }
    }
    t.add_row({core::to_string(s), util::format_double(bytes, 1),
               util::format_double(broken ? delay / broken : 0.0, 1),
               std::to_string(restored) + "/" + std::to_string(broken)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  // --faults SEED runs the fleet stage under the demo fault schedule
  // (faults::demo_plan) seeded from SEED: the quickest way to watch the
  // degradation ladder fire outside the test suite. --backend remote:ADDR
  // forces the fleet stage and serves its decide phase through a running
  // `libra serve` daemon.
  const std::string backend_spec = args.str("backend");
  const int scrape_port = int_arg(args, "scrape-port", 0, 0, kMaxPort);
  const bool online_fleet = args.flag("online-fleet");
  if (args.flag("metrics") || !args.str("trace-out").empty() ||
      args.flag("faults") || !backend_spec.empty() || scrape_port > 0 ||
      online_fleet) {
    std::optional<faults::FaultPlan> plan;
    if (args.flag("faults")) {
      plan = faults::demo_plan(seed_arg(args, "faults"));
    }
    std::optional<rpc::RemoteBackend> remote;
    if (!backend_spec.empty()) {
      if (backend_spec.rfind("remote:", 0) != 0) {
        std::fprintf(stderr,
                     "error: --backend expects remote:ADDR, got '%s'\n",
                     backend_spec.c_str());
        return 2;
      }
      remote.emplace(rpc::parse_remote_addr(backend_spec.substr(7)));
      // Push the freshly trained forest so the daemon serves the exact
      // model this process would use locally -- the precondition for the
      // digest line below matching a --backend-less run. A dead daemon is
      // not an error: the fleet degrades through the rung-2 fallback.
      const std::optional<rpc::AckMsg> ack =
          remote->client().push_model(classifier.forest());
      if (!ack.has_value()) {
        std::fprintf(stderr,
                     "warning: daemon %s unreachable; fleet stage will run "
                     "degraded (RA-first fallback)\n",
                     remote->client().address().c_str());
      } else if (!ack->ok) {
        std::fprintf(stderr, "error: daemon rejected the model: %s\n",
                     ack->message.c_str());
        return 1;
      } else {
        std::printf("pushed %d-tree forest to %s\n",
                    static_cast<int>(classifier.forest().trees().size()),
                    remote->client().address().c_str());
      }
    }
    std::unique_ptr<core::FleetTrainer> trainer;
    if (online_fleet) {
      // Free-running online learning over the fleet stage: the trainer
      // starts from the freshly trained forest (generation 1) and serves
      // the decide phase through its swap slot. With --backend, shipped
      // candidates are forwarded to the daemon too -- a failed push keeps
      // the local swap and is only counted.
      core::FleetTrainerConfig tcfg;
      tcfg.seed = seed_arg(args, "seed");
      trainer = std::make_unique<core::FleetTrainer>(tcfg);
      trainer->seed_model(classifier.forest());
      if (remote) {
        trainer->set_remote_push([&remote](const ml::RandomForest& forest) {
          const std::optional<rpc::AckMsg> ack =
              remote->client().push_model(forest);
          return ack.has_value() && ack->ok;
        });
      }
      trainer->start();
    }
    run_fleet_stage(classifier,
                    seed_arg(args, "seed"),
                    plan ? &*plan : nullptr,
                    remote ? &*remote : nullptr, scrape_port,
                    trainer.get());
    if (trainer) trainer->stop();
  }
  dump_telemetry(args);
  return 0;
}

// SIGINT/SIGTERM -> clean daemon shutdown (flag checked by the serve loop).
volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(const Args& args) {
  args.require_known({"socket", "port", "host", "workers", "metrics",
                      "metrics-port", "trace-out"});
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: libra serve <forest> --socket PATH | --port N "
                 "[--host H] [--workers N] [--metrics] [--metrics-port N]\n");
    return 2;
  }
  const ml::RandomForest forest = ml::load_forest_file(args.positional[0]);
  rpc::ServerConfig cfg;
  cfg.unix_socket = args.str("socket");
  cfg.host = args.str("host", "127.0.0.1");
  cfg.port = int_arg(args, "port", 0, 0, kMaxPort);
  cfg.num_workers = int_arg(args, "workers", 4, 0, 1024);
  if (cfg.unix_socket.empty() && !args.flag("port")) {
    std::fprintf(stderr,
                 "error: serve needs --socket PATH or --port N (0 picks an "
                 "ephemeral port)\n");
    return 2;
  }
  // The daemon is trace process 2 ("libra-serve"): a merged Perfetto export
  // then shows its rpc.server.* spans on their own track, nested under the
  // controller's decide spans via the propagated trace ids.
  obs::set_trace_process(2, "libra-serve");
  rpc::DecisionServer server(cfg);
  server.set_forest(forest);
  server.start();
  std::printf("serving %d-tree forest on %s (%d workers)\n",
              static_cast<int>(forest.trees().size()), server.address().c_str(),
              cfg.num_workers);

  // --metrics-port N: the daemon's own observability tier -- an aggregator
  // rolling up this process's registry, scraped at /metrics, /healthz,
  // /series.json. Origin label matches what StatsAck reports.
  std::unique_ptr<obs::Aggregator> aggregator;
  std::unique_ptr<obs::ScrapeServer> scrape;
  const int metrics_port = int_arg(args, "metrics-port", 0, 0, kMaxPort);
  if (args.flag("metrics-port")) {
    obs::AggregatorConfig agg_cfg;
    agg_cfg.local_origin = cfg.stats_origin;
    aggregator = std::make_unique<obs::Aggregator>(agg_cfg);
    aggregator->rollup_now();
    aggregator->start();
    obs::ScrapeConfig scrape_cfg;
    scrape_cfg.port = metrics_port;
    scrape = std::make_unique<obs::ScrapeServer>(*aggregator, scrape_cfg);
    scrape->start();
    std::printf("metrics on http://%s/metrics (also /healthz, /series.json)\n",
                scrape->address().c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    // The accept/handler threads do all the work; this thread only waits
    // for a stop signal (sleep via sigtimedwait-free portable polling).
    struct timespec ts {0, 100 * 1000 * 1000};  // 100 ms
    nanosleep(&ts, nullptr);
  }
  std::printf("shutting down %s\n", server.address().c_str());
  server.stop();
  dump_telemetry(args);
  return 0;
}

// ---- libra top: live dashboard over /series.json ---------------------------

// Last point of a ring series ([..] of numbers), or fallback when the
// series is absent/empty (endpoint just started, no roll-up yet).
double ring_last(const util::JsonValue* series, const char* key) {
  if (series == nullptr) return 0.0;
  const util::JsonValue* ring = series->find(key);
  if (ring == nullptr || !ring->is_array() || ring->array.empty()) return 0.0;
  return ring->array.back().number;
}

const util::JsonValue* find_metric(const util::JsonValue& origin,
                                   const char* kind, const std::string& name) {
  const util::JsonValue* k = origin.find(kind);
  return k == nullptr ? nullptr : k->find(name);
}

// A gauge series carries a scalar "last" (most recent set), a counter
// series a scalar "total" -- not the ring arrays ring_last reads.
double scalar_of(const util::JsonValue* series, const char* key) {
  if (series == nullptr) return 0.0;
  const util::JsonValue* v = series->find(key);
  return v == nullptr ? 0.0 : v->number;
}

void render_top_frame(const util::JsonValue& root, bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);
  const util::JsonValue* rollups = root.find("rollups");
  std::printf("libra top -- %.0f roll-ups, period %.0f ms\n",
              rollups != nullptr ? rollups->number : 0.0,
              root.find("period_ms") != nullptr
                  ? root.find("period_ms")->number : 0.0);
  const util::JsonValue* origins = root.find("origins");
  if (origins == nullptr || origins->object.empty()) {
    std::printf("  (no series yet -- waiting for the first roll-up)\n");
    std::fflush(stdout);
    return;
  }
  util::Table t({"origin", "links/s", "tick p99 us", "degraded/s",
                 "fallback/s", "req/s"});
  for (const auto& [name, origin] : origins->object) {
    t.add_row(
        {name,
         util::format_double(
             ring_last(find_metric(origin, "counters", "fleet.link_frames"),
                       "rate"), 0),
         util::format_double(
             ring_last(find_metric(origin, "histograms",
                                   "fleet.tick_latency_us"), "p99"), 0),
         util::format_double(
             ring_last(find_metric(origin, "counters",
                                   "controller.degraded_decisions"), "rate"),
             1),
         util::format_double(
             ring_last(find_metric(origin, "counters", "rpc.outage_fallbacks"),
                       "rate"), 1),
         util::format_double(
             ring_last(find_metric(origin, "counters", "rpc.server.requests"),
                       "rate"), 0)});
  }
  std::fputs(t.to_string().c_str(), stdout);

  // Online-trainer panel: shown only for origins running a FleetTrainer
  // (the trainer.generation gauge exists once a model is seeded).
  for (const auto& [name, origin] : origins->object) {
    const util::JsonValue* generation =
        find_metric(origin, "gauges", "trainer.generation");
    if (generation == nullptr) continue;
    std::printf(
        "online trainer (%s): gen %.0f, drift %.3f, acc %.3f vs %.3f, "
        "window %.0f rows, %.0f rows/s sampled, swaps %.0f/%.0f "
        "(shipped/rejected), fits %.0f\n",
        name.c_str(), scalar_of(generation, "last"),
        scalar_of(find_metric(origin, "gauges", "trainer.drift_score"),
                  "last"),
        scalar_of(find_metric(origin, "gauges", "trainer.candidate_acc"),
                  "last"),
        scalar_of(find_metric(origin, "gauges", "trainer.incumbent_acc"),
                  "last"),
        scalar_of(find_metric(origin, "gauges", "trainer.window_rows"),
                  "last"),
        ring_last(find_metric(origin, "counters", "trainer.rows_sampled"),
                  "rate"),
        scalar_of(find_metric(origin, "counters", "trainer.swaps_shipped"),
                  "total"),
        scalar_of(find_metric(origin, "counters", "trainer.swaps_rejected"),
                  "total"),
        scalar_of(find_metric(origin, "counters", "trainer.fits"), "total"));
  }

  // Per-MCS occupancy (frames transmitted per MCS index, cumulative):
  // share-of-total bars across every origin that reports the counters.
  for (const auto& [name, origin] : origins->object) {
    const util::JsonValue* counters = origin.find("counters");
    if (counters == nullptr) continue;
    static constexpr char kPrefix[] = "controller.mcs_occupancy.";
    double total = 0.0;
    std::vector<std::pair<std::string, double>> occupancy;
    for (const auto& [cname, series] : counters->object) {
      if (cname.rfind(kPrefix, 0) != 0) continue;
      const util::JsonValue* v = series.find("total");
      const double frames = v != nullptr ? v->number : 0.0;
      occupancy.emplace_back(cname.substr(sizeof(kPrefix) - 1), frames);
      total += frames;
    }
    if (occupancy.empty() || total <= 0.0) continue;
    std::printf("mcs occupancy (%s):\n", name.c_str());
    for (const auto& [mcs, frames] : occupancy) {
      const double share = frames / total;
      const int bar = static_cast<int>(share * 40.0 + 0.5);
      std::printf("  mcs %-3s %-40.*s %5.1f%%\n", mcs.c_str(), bar,
                  "########################################", 100.0 * share);
    }
  }
  std::fflush(stdout);
}

int cmd_top(const Args& args) {
  args.require_known({"interval-ms", "once"});
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: libra top HOST:PORT [--interval-ms N] [--once]\n");
    return 2;
  }
  const std::string& target = args.positional[0];
  rpc::ClientConfig addr;
  try {
    addr = rpc::parse_remote_addr(target);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: top: %s\n", e.what());
    return 2;
  }
  if (!addr.unix_socket.empty()) {
    std::fprintf(stderr, "error: top expects HOST:PORT, got '%s'\n",
                 target.c_str());
    return 2;
  }
  const int interval_ms = int_arg(args, "interval-ms", 1000, 1, 3'600'000);
  const bool once = args.flag("once");

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    const std::optional<obs::HttpResponse> resp =
        obs::http_get(addr.host, addr.port, "/series.json");
    if (!resp.has_value() || resp->status != 200) {
      if (once) {
        std::fprintf(stderr, "error: no scrape endpoint at %s\n",
                     target.c_str());
        return 1;
      }
      std::printf("waiting for scrape endpoint at %s...\n", target.c_str());
      std::fflush(stdout);
    } else {
      try {
        render_top_frame(util::parse_json(resp->body), /*clear_screen=*/!once);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: bad /series.json payload: %s\n",
                     e.what());
        return 1;
      }
      if (once) return 0;
    }
    const long long ns = interval_ms * 1'000'000LL;
    struct timespec ts{static_cast<time_t>(ns / 1000000000),
                       static_cast<long>(ns % 1000000000)};
    nanosleep(&ts, nullptr);
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "libra <command> ...\n"
               "  collect <out.ds> [--testing] [--seed N] [--frames N]\n"
               "            [--metrics] [--trace-out FILE]\n"
               "  summarize <ds> [--alpha A]\n"
               "  train <ds> <out.forest> [--three-class] [--trees N]\n"
               "  eval <forest> <ds> [--three-class]\n"
               "  export-csv <ds>\n"
               "  simulate <train.ds> <eval.ds> [--ba MS] [--fat MS] "
               "[--flow MS]\n"
               "            [--metrics] [--trace-out FILE] [--faults SEED]\n"
               "            [--backend remote:ADDR] [--scrape-port N]\n"
               "            [--online-fleet]\n"
               "  serve <forest> --socket PATH | --port N [--host H]\n"
               "            [--workers N] [--metrics] [--metrics-port N]\n"
               "  top HOST:PORT [--interval-ms N] [--once]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, /*first=*/2);
  try {
    if (cmd == "collect") return cmd_collect(args);
    if (cmd == "summarize") return cmd_summarize(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "export-csv") return cmd_export_csv(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "top") return cmd_top(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
