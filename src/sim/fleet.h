// Fleet serving: one AP-side decision engine stepping many links per tick
// (the multi-STA deployment of Algorithm 1 -- from dozens of associated
// stations up to the 10^5-10^6 links of a dense multi-gigabit deployment,
// all adapting against shared classifiers every beacon interval).
//
// The fleet is partitioned into contiguous *shards*. Each shard keeps its
// per-link hot state in structure-of-arrays arenas (decision-request slots,
// verdicts, and per-classifier feature-row arenas -- the same contiguous
// layout trick that made ml::CompiledForest 2.4-3.9x over the pointer
// walk), and each tick runs the three-phase pipeline shard by shard:
//
//   gather   every active link transmits one frame (SessionDriver::observe)
//            and its DecisionRequest lands in the shard's request arena;
//            rows needing inference are appended to that classifier's
//            contiguous row arena (amortized O(1) group lookup);
//   decide   one classify_batch call per classifier with pending rows --
//            a shard's feature rows ride one pooled forest pass;
//   scatter  verdicts flow back through apply(), which runs BA / the RA
//            walk / upward probing and accounts the frame per link.
//
// With num_threads > 1 the shard ticks are dispatched onto a
// util::ThreadPool, so batched inference for shard k overlaps environment
// stepping for shard k+1: each shard's request/row arenas are filled by its
// gather and drained by its decide/scatter with no fleet-wide barrier
// between the phases -- only the tick boundary synchronizes.
//
// Determinism contract: link i draws only from its own stream, forked off
// the fleet seed in global link order before any stepping, and
// classify_batch jitters rows serially in link order from those same
// streams. Shard boundaries and the thread schedule therefore never touch
// the randomness: a fleet run is bit-identical for ANY (shards,
// num_threads, forest thread count) combination.
//
// The tick loop is the only decide path in the library: run_session()
// (sim/session.h) runs it as a one-link fleet on the caller's stream, so a
// fleet run equals, link for link, N run_session() calls fed the same
// forked streams -- and both equal a hand-driven serial observe ->
// LibraClassifier::classify() -> apply oracle (tests/fleet_test.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "faults/faults.h"
#include "obs/metrics.h"
#include "sim/session.h"
#include "util/stats.h"

namespace libra::core {
class DecisionBackend;  // core/decision_backend.h
class FleetTrainer;     // core/trainer.h
}

namespace libra::sim {

// One fleet member: a controller bound to its own environment and link
// (sessions mutate blockers/interferers, so members never share a world).
struct FleetLink {
  env::Environment* environment = nullptr;  // non-owning
  channel::Link* link = nullptr;            // non-owning
  core::LinkController* controller = nullptr;  // non-owning
  SessionScript script;
};

struct FleetConfig {
  // Per-link Rng streams are forked off this seed in link order: link i
  // gets the (i+1)-th fork() of Rng(seed).
  std::uint64_t seed = 1;
  bool keep_frame_logs = false;
  // Shard count: links are split into this many contiguous ranges, each
  // stepped as one unit with its own SoA arenas. 0 = one shard per worker
  // thread (minimum 1); clamped to the link count. Results are
  // bit-identical for any value (determinism contract above).
  int shards = 0;
  // Worker threads for the shard ticks: 1 = the serial legacy loop
  // (default), 0 = hardware_concurrency(), N > 1 = pool of N. Results are
  // bit-identical for any value. Throws std::invalid_argument on negative
  // shards/num_threads.
  int num_threads = 1;
  // Where the decide phase's vote fractions come from
  // (core/decision_backend.h) -- the only way to choose. Null (the
  // default) serves every classifier through its own compiled forest. A
  // remote backend ships every shard's jittered rows to an inference
  // daemon; a loopback daemon serving the same forest is bit-identical to
  // local for any (shards, num_threads). run_fleet also attaches it to
  // every controller for the run, so a remote backend's plan-time checks
  // (a health probe taken once per tick for the whole fleet, kRpcDrop,
  // kRpcDelay past the deadline) degrade a decision before it is
  // requested. When the backend fails at decide
  // time (BackendOutageError), every row of the failed batch falls back
  // to its plan-time rung-2 verdict (DecisionRequest::outage_fallback --
  // the same RA-first rule as a classifier outage). rpc.outage_fallbacks
  // counts both kinds. Non-owning.
  core::DecisionBackend* backend = nullptr;
  // Deterministic fault schedule (faults/faults.h). Every link gets its own
  // fault stream, forked off Rng(faults.seed) in link order -- disjoint
  // from the simulation streams above, so an empty plan (the default) is
  // bit-identical to a run with no fault machinery at all, and a faulted
  // run replays bit-for-bit from (seed, faults.seed) at any shard/thread
  // count. Validated up front; throws std::invalid_argument on a bad plan.
  faults::FaultPlan faults{};
  // Live observability: > 0 mounts an obs::ScrapeServer on
  // 127.0.0.1:scrape_port for the duration of the run (GET /metrics,
  // /healthz, /series.json), fed by an obs::Aggregator (its default
  // AggregatorConfig: origin "controller", one roll-up a second) rolling
  // up the controller's registry -- plus the daemon's
  // (StatsPush-merged, origin-labeled) when `backend` has a peer. 0 (the
  // default) runs without the aggregation tier. Aggregation is
  // observation-only: the digest is bit-identical either way (proven in
  // tests/rpc_test.cpp / tests/fleet_test.cpp). Throws
  // std::invalid_argument on a port outside [0, 65535].
  int scrape_port = 0;
  // Online-learning row stream (core/trainer.h). Non-null attaches the
  // trainer as a row consumer: scatter samples each link's inference
  // decisions through the trainer's seeded hash (never the link Rng
  // streams), and the sampled decision resolves into a hindsight-labeled
  // TrainRow at that link's next observe. run_fleet sizes one ring per
  // shard (attach_producers) up front. An attached trainer that never
  // ships a swap is bit-identical to trainer == nullptr; to actually serve
  // the trainer's models, also point `backend` at trainer->backend(). With
  // a pinned swap_at_ticks schedule, run_fleet calls trainer->on_tick()
  // serially after every tick's shard barrier, so swaps land at
  // deterministic tick boundaries and the run replays bit-for-bit at any
  // (shards, num_threads); in free-running mode start() the trainer before
  // run_fleet (no replay promise). Non-owning.
  core::FleetTrainer* trainer = nullptr;
};

struct FleetResult {
  std::vector<SessionResult> links;  // per-link, in FleetLink order
  // Accounting fields are 64-bit: a 10^5-link fleet pushes ~2.1e9 batched
  // rows (int32 overflow) within minutes, and a 10^6-link run overflows
  // every int32 counter below well before it finishes.
  std::int64_t ticks = 0;         // lockstep rounds until every link finished
  std::int64_t batched_rows = 0;  // feature rows served through classify_batch
  std::int64_t link_frames = 0;   // frames transmitted across all links --
                                  // the links/s numerator for fleet benches
  // Rows offered to FleetConfig::trainer's row stream (0 with no trainer).
  std::int64_t trainer_rows_sampled = 0;
  int shards_used = 0;            // shard count after resolution/clamping
  // Wall-clock per lockstep tick (all shards' gather + batched decide +
  // scatter). The same per-tick measurement also feeds the
  // "fleet.tick_latency_us" histogram, so this and the scrape report from
  // one clock-read pair.
  util::RunningStats tick_latency_us;
  // Scrape of the global obs registry taken as the run finishes (counts
  // are process-cumulative, like any scrape endpoint). All-zero when
  // telemetry is disabled.
  obs::MetricsSnapshot metrics;
};

// Step every link in lockstep ticks until all scripts complete. Links whose
// sessions end early (shorter scripts) simply sit out later ticks; shards
// whose links have all finished are skipped entirely. Throws
// std::invalid_argument on null members, an invalid script, or a negative
// shards/num_threads.
FleetResult run_fleet(std::span<const FleetLink> links,
                      const FleetConfig& cfg = {});

}  // namespace libra::sim
