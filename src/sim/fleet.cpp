#include "sim/fleet.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/decision_backend.h"
#include "core/trainer.h"
#include "obs/aggregate.h"
#include "obs/scrape.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace libra::sim {

namespace {
// Fleet serving telemetry: per-phase latency and throughput counters. The
// tick histogram is fed from the same StopWatch measurement that fills
// FleetResult::tick_latency_us (one source of truth). Phase histograms are
// per-shard observations (shards tick concurrently), the tick histogram is
// per fleet-wide lockstep round.
struct FleetMetrics {
  obs::Counter& ticks;
  obs::Counter& batched_rows;
  obs::Counter& link_frames;
  obs::Counter& degraded_decisions;  // shared with the controller's counter
  obs::Histogram& tick_latency_us;
  obs::Histogram& gather_us;
  obs::Histogram& decide_us;
  obs::Histogram& scatter_us;
};
FleetMetrics& fleet_metrics() {
  obs::Registry& r = obs::Registry::global();
  static FleetMetrics m{r.counter("fleet.ticks"),
                        r.counter("fleet.batched_rows"),
                        r.counter("fleet.link_frames"),
                        r.counter("controller.degraded_decisions"),
                        r.histogram("fleet.tick_latency_us"),
                        r.histogram("fleet.gather_us"),
                        r.histogram("fleet.decide_us"),
                        r.histogram("fleet.scatter_us")};
  return m;
}

// Feature rows pending inference against one classifier, SoA: rows[m] is
// jittered from *row_rngs[m] and its verdict lands in slot row_slot[m].
// The arenas are cleared (capacity kept) every tick, so steady-state ticks
// allocate nothing.
struct Group {
  const core::LibraClassifier* key = nullptr;
  std::vector<trace::FeatureVector> rows;
  std::vector<util::Rng*> row_rngs;
  std::vector<std::size_t> row_slot;  // shard-local request slot per row
};

// One contiguous range of links [begin, end) stepped as a unit. All hot
// per-tick state lives in flat arenas indexed by shard-local slot
// (global link i <-> slot i - begin): request slots are plain
// DecisionRequest values guarded by a has_request byte (no
// std::optional churn -- slots are overwritten in place each tick), and
// group_of gives amortized O(1) classifier -> row-arena lookup in gather
// (the old loop rescanned the group list per request). Shards never share
// mutable state, so shard ticks run concurrently without locks.
struct Shard {
  // Online-learning row stream (FleetConfig::trainer): a sampled inference
  // decision parks here until the link's next observe reveals its outcome
  // in hindsight. Slot-indexed like the request arena.
  struct PendingRow {
    unsigned char active = 0;
    trace::FeatureVector features{};  // decision-time features, un-jittered
    trace::Action served = trace::Action::kNA;
  };

  std::size_t begin = 0;
  std::size_t end = 0;
  bool finished = false;  // every link done -- skip all later ticks
  bool stepped = false;   // did any link transmit this tick
  std::vector<core::DecisionRequest> requests;  // slot-indexed, flat
  std::vector<unsigned char> has_request;
  std::vector<trace::Action> verdicts;
  std::vector<Group> groups;  // first-appearance order, persistent arenas
  std::unordered_map<const core::LibraClassifier*, std::size_t> group_of;
  std::vector<PendingRow> pending;        // trainer only
  std::vector<std::uint64_t> sample_seq;  // per-link inference-decision count
  std::int64_t batched_rows = 0;
  std::int64_t link_frames = 0;
  std::int64_t trainer_rows = 0;
};

// The per-frame observe -> decide -> apply loop of Algorithm 1, shared by
// run_fleet (streams forked off the fleet seed) and run_session (a one-link
// span over the caller's stream). Link i draws only from rngs[i]. A
// non-null `attached` (run_fleet's, wrapping cfg.backend) gets its health
// refreshed once per tick.
FleetResult run_links(std::span<const FleetLink> links,
                      std::span<util::Rng> rngs, const FleetConfig& cfg,
                      core::AttachedBackend* attached) {
  FleetMetrics& metrics = fleet_metrics();
  std::vector<SessionDriver> drivers;
  drivers.reserve(links.size());
  for (const FleetLink& l : links) {
    drivers.emplace_back(*l.environment, *l.link, *l.controller, l.script,
                         cfg.keep_frame_logs);
  }

  // Resolve the shard/thread grid. One shard per worker by default; an
  // explicit shard count decouples arena granularity from parallelism
  // (and any combination is bit-identical, so it's purely a perf knob).
  const int threads = util::ThreadPool::resolve(cfg.num_threads);
  std::size_t num_shards =
      cfg.shards == 0 ? static_cast<std::size_t>(std::max(threads, 1))
                      : static_cast<std::size_t>(cfg.shards);
  num_shards = std::min(num_shards, links.size());

  std::vector<Shard> shards;
  shards.reserve(num_shards);
  if (num_shards > 0) {
    const std::size_t base = links.size() / num_shards;
    const std::size_t extra = links.size() % num_shards;
    std::size_t begin = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t size = base + (s < extra ? 1 : 0);
      Shard shard;
      shard.begin = begin;
      shard.end = begin + size;
      shard.requests.resize(size);
      shard.has_request.assign(size, 0);
      shard.verdicts.assign(size, trace::Action::kNA);
      if (cfg.trainer != nullptr) {
        shard.pending.resize(size);
        shard.sample_seq.assign(size, 0);
      }
      shards.push_back(std::move(shard));
      begin += size;
    }
  }
  // One row ring per shard: a shard's scatter is its ring's only producer,
  // so offers only ever contend with the trainer's drain, never each other.
  if (cfg.trainer != nullptr) cfg.trainer->attach_producers(shards.size());

  // The pool is only spun up when it can actually overlap shard work.
  // Forest inference inside a shard tick stays safe: classify_batch on a
  // pool worker runs inline (ThreadPool::in_worker()), never nested-pooled.
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (threads > 1 && shards.size() > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(threads);
  }
  util::ThreadPool* pool = owned_pool.get();

  // Initial association. start(rngs[i]) touches only link i's own state
  // and stream, so per-shard parallel start is bit-identical to the
  // serial loop.
  util::parallel_for(pool, shards.size(), [&](std::size_t s) {
    for (std::size_t i = shards[s].begin; i < shards[s].end; ++i) {
      drivers[i].start(rngs[i]);
    }
  });

  FleetResult result;
  result.shards_used = static_cast<int>(num_shards);

  // One shard's full gather -> decide -> scatter tick. Under the pool,
  // shard k can be deep in its decide (batched inference) while shard k+1
  // is still gathering (environment stepping): the request/row arenas are
  // the double buffer -- filled by gather, drained by decide/scatter --
  // and nothing below synchronizes until the tick boundary.
  auto tick_shard = [&](std::size_t s, std::int64_t tick) {
    Shard& shard = shards[s];
    shard.stepped = false;

    // Gather: every active link transmits one frame; rows needing
    // inference are appended to their classifier's contiguous arena.
    {
      OBS_SPAN("fleet.gather", &metrics.gather_us);
      for (Group& group : shard.groups) {
        group.rows.clear();
        group.row_rngs.clear();
        group.row_slot.clear();
      }
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        const std::size_t slot = i - shard.begin;
        if (drivers[i].done()) {
          shard.has_request[slot] = 0;
          continue;
        }
        shard.requests[slot] = drivers[i].observe(rngs[i]);
        shard.has_request[slot] = 1;
        const core::DecisionRequest& req = shard.requests[slot];
        // A parked row's outcome is now visible: this frame's report says
        // whether the sampled decision kept the link working. The offer
        // never blocks (try_lock + drop-oldest inside the ring).
        if (cfg.trainer != nullptr && shard.pending[slot].active) {
          Shard::PendingRow& parked = shard.pending[slot];
          parked.active = 0;
          core::TrainRow row;
          row.tick = tick;
          row.link = static_cast<std::uint32_t>(i);
          row.features = parked.features;
          row.label = core::hindsight_label(parked.served, req.report);
          cfg.trainer->offer(s, std::move(row));
          ++shard.trainer_rows;
        }
        if (req.needs_inference()) {
          const auto [it, inserted] =
              shard.group_of.try_emplace(req.classifier, shard.groups.size());
          if (inserted) {
            shard.groups.emplace_back();
            shard.groups.back().key = req.classifier;
          }
          Group& group = shard.groups[it->second];
          group.rows.push_back(req.features);
          group.row_rngs.push_back(&rngs[i]);
          group.row_slot.push_back(slot);
        } else {
          shard.verdicts[slot] = req.resolved_without_inference();
        }
      }
    }

    // Decide: one batched inference per classifier with pending rows;
    // row order is link order, each row jittered from its own stream.
    {
      OBS_SPAN("fleet.decide", &metrics.decide_us);
      for (Group& group : shard.groups) {
        if (group.rows.empty()) continue;
        try {
          const std::vector<trace::Action> batch = group.key->classify_batch(
              group.rows, group.row_rngs, cfg.backend);
          for (std::size_t m = 0; m < batch.size(); ++m) {
            shard.verdicts[group.row_slot[m]] = batch[m];
          }
        } catch (const core::BackendOutageError&) {
          // The jitter draws for this batch are already consumed, so the
          // per-link streams stay aligned with a healthy run. Substitute
          // each row's plan-time rung-2 verdict (the RA-first rule frozen
          // in DecisionRequest::outage_fallback) and keep the fleet
          // ticking -- a dead daemon degrades the fleet, never stops it.
          core::outage_fallback_counter().inc(group.rows.size());
          metrics.degraded_decisions.inc(group.rows.size());
          for (const std::size_t slot : group.row_slot) {
            shard.verdicts[slot] = shard.requests[slot].outage_fallback;
          }
        }
        shard.batched_rows += static_cast<std::int64_t>(group.rows.size());
        metrics.batched_rows.inc(group.rows.size());
      }
    }

    // Scatter: act on the verdicts and account the frames.
    {
      OBS_SPAN("fleet.scatter", &metrics.scatter_us);
      std::size_t applied = 0;
      for (std::size_t slot = 0; slot < shard.requests.size(); ++slot) {
        if (!shard.has_request[slot]) continue;
        const std::size_t i = shard.begin + slot;
        drivers[i].apply(shard.verdicts[slot], shard.requests[slot], rngs[i]);
        // Sample this link's inference decisions for the trainer's row
        // stream. wants() is a pure hash of (trainer seed, link, per-link
        // decision sequence) -- no Rng stream is touched, so the sampling
        // (and an attached trainer whose gates never fire) cannot perturb
        // the simulation.
        if (cfg.trainer != nullptr && shard.requests[slot].needs_inference()) {
          const std::uint64_t seq = shard.sample_seq[slot]++;
          if (cfg.trainer->wants(static_cast<std::uint32_t>(i), seq)) {
            shard.pending[slot] = Shard::PendingRow{
                1, shard.requests[slot].features, shard.verdicts[slot]};
          }
        }
        ++applied;
      }
      if (applied > 0) {
        shard.stepped = true;
        shard.link_frames += static_cast<std::int64_t>(applied);
        metrics.link_frames.inc(applied);
      }
    }
    if (!shard.stepped) shard.finished = true;
  };

  bool any_active = !shards.empty();
  std::int64_t tick = 0;
  while (any_active) {
    const obs::StopWatch tick_watch;
    OBS_SPAN("fleet.tick");
    // The plan seam's health probe, taken here in the serial region so
    // every link of the tick reads the same value: a shard whose failed
    // batch closes the shared connection mid-tick cannot turn a later
    // shard's links into plan-time fallbacks, and the result does not
    // depend on the (shards, threads) grid or the thread schedule.
    if (attached != nullptr && !attached->backend->local()) {
      attached->available = attached->backend->available();
    }
    util::parallel_for(pool, shards.size(), [&](std::size_t s) {
      if (!shards[s].finished) tick_shard(s, tick);
    });
    any_active = false;
    for (const Shard& shard : shards) {
      if (shard.stepped) any_active = true;
    }
    if (any_active) {
      ++result.ticks;
      metrics.ticks.inc();
      const double tick_us = tick_watch.elapsed_us();
      result.tick_latency_us.add(tick_us);
      metrics.tick_latency_us.observe(tick_us);
      // Pinned-schedule trainer mode: drain + scheduled swaps run here, in
      // the serial region after the shard barrier, so a swap lands at a
      // deterministic tick boundary whatever the (shards, threads) grid.
      if (cfg.trainer != nullptr && cfg.trainer->pinned_schedule()) {
        cfg.trainer->on_tick(tick);
      }
    }
    ++tick;
  }

  for (const Shard& shard : shards) {
    result.batched_rows += shard.batched_rows;
    result.link_frames += shard.link_frames;
    result.trainer_rows_sampled += shard.trainer_rows;
  }
  result.links.reserve(drivers.size());
  for (SessionDriver& driver : drivers) {
    result.links.push_back(driver.finish());
  }
  return result;
}

}  // namespace

FleetResult run_fleet(std::span<const FleetLink> links,
                      const FleetConfig& cfg) {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!links[i].environment || !links[i].link || !links[i].controller) {
      throw std::invalid_argument("run_fleet: null member in fleet link " +
                                  std::to_string(i));
    }
  }
  if (cfg.shards < 0) {
    throw std::invalid_argument("run_fleet: shards must be >= 0, got " +
                                std::to_string(cfg.shards));
  }
  if (cfg.num_threads < 0) {
    throw std::invalid_argument("run_fleet: num_threads must be >= 0, got " +
                                std::to_string(cfg.num_threads));
  }
  if (cfg.scrape_port < 0 || cfg.scrape_port > 65535) {
    throw std::invalid_argument("run_fleet: scrape_port must be in [0, 65535], got " +
                                std::to_string(cfg.scrape_port));
  }
  cfg.faults.validate();

  // Live observability for this run: an aggregator rolling the registry
  // (and the daemon's StatsPush-merged snapshots when the backend has a
  // peer) into time series, scraped over HTTP. Strictly observation-only --
  // the roll-up thread reads shards and clocks, never Rng or link state --
  // so the digest is bit-identical with or without it.
  std::unique_ptr<obs::Aggregator> aggregator;
  std::unique_ptr<obs::ScrapeServer> scrape_server;
  if (cfg.scrape_port > 0) {
    aggregator = std::make_unique<obs::Aggregator>();
    if (cfg.backend != nullptr) {
      core::DecisionBackend* backend = cfg.backend;
      // Peers are labeled by the origin the daemon itself reports
      // (rpc::kStatsOrigin, "daemon").
      aggregator->add_source(
          [backend]() -> std::optional<obs::LabeledSnapshot> {
            std::optional<core::PeerStats> stats = backend->peer_stats();
            if (!stats.has_value()) return std::nullopt;
            return obs::LabeledSnapshot{std::move(stats->origin),
                                        std::move(stats->snapshot)};
          });
    }
    aggregator->rollup_now();  // first collection point before tick 0
    aggregator->start();
    obs::ScrapeConfig scrape_cfg;
    scrape_cfg.port = cfg.scrape_port;
    scrape_server = std::make_unique<obs::ScrapeServer>(*aggregator, scrape_cfg);
    scrape_server->start();
  }

  // Fork every link's stream up front, in GLOBAL link order: neither the
  // shard layout nor the thread schedule can perturb what an individual
  // link draws. This line is the whole determinism proof -- everything
  // after it only ever touches rngs[i] from link i's own gather / decide
  // row / scatter, which live on exactly one shard.
  util::Rng fleet_rng(cfg.seed);
  std::vector<util::Rng> rngs;
  rngs.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    rngs.push_back(fleet_rng.fork());
  }

  // Every controller sees cfg.backend (with its per-tick health) at its
  // plan seam, so a remote backend's health probe and the
  // kRpcDrop/kRpcDelay faults fire before a request is made. Fault streams
  // are forked off the *fault* seed, again in global link order -- never
  // off the simulation streams, so attaching a plan perturbs nothing but
  // the faults it injects, and an empty plan attaches no injector at all.
  // The guard detaches the backend and every injector on any exit path
  // (controllers are non-owning and may outlive this call).
  core::AttachedBackend attached{cfg.backend};  // outlives the guard
  core::AttachedBackend* const seam =
      cfg.backend != nullptr ? &attached : nullptr;
  struct InjectorGuard {
    std::span<const FleetLink> links;
    std::vector<faults::FaultInjector> injectors;
    ~InjectorGuard() {
      for (std::size_t i = 0; i < links.size(); ++i) {
        links[i].controller->set_decision_backend(nullptr);
        if (i < injectors.size()) {
          links[i].controller->set_fault_injector(nullptr);
        }
      }
    }
  } guard{links, {}};
  util::Rng fault_rng(cfg.faults.seed);
  if (!cfg.faults.empty()) guard.injectors.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].controller->set_decision_backend(seam);
    if (!cfg.faults.empty()) {
      guard.injectors.emplace_back(&cfg.faults, fault_rng.fork());
      links[i].controller->set_fault_injector(&guard.injectors[i]);
    }
  }

  FleetResult result = run_links(links, rngs, cfg, seam);
  result.metrics = obs::Registry::global().snapshot();
  return result;
}

SessionResult run_session(env::Environment& environment, channel::Link& link,
                          core::LinkController& controller,
                          const SessionScript& script, util::Rng& rng,
                          bool keep_frame_log) {
  const FleetLink member{&environment, &link, &controller, script};
  FleetConfig cfg;
  cfg.keep_frame_logs = keep_frame_log;
  return std::move(
      run_links({&member, 1}, {&rng, 1}, cfg, nullptr).links.front());
}

}  // namespace libra::sim
