// Fleet-scale metrics aggregation: a background roll-up tier that turns the
// registry's cumulative counters into bounded time series.
//
// `Registry::snapshot()` answers "what happened since process start";
// watching a running fleet needs "what is happening now". The Aggregator
// periodically collects cumulative snapshots -- the local process's global
// registry plus any number of remote sources (e.g. the inference daemon,
// polled over the rpc StatsPush/StatsAck pair) -- computes the delta since
// the previous roll-up (`MetricsSnapshot::delta_since`), and folds it into
// fixed-capacity ring-buffer series per origin:
//
//   - counters:   per-second rates (plus the running cumulative total)
//   - gauges:     last value
//   - histograms: windowed p50/p95/p99 and an observations-per-second rate
//
// The folded state is exposed two ways: `prometheus_text()` renders the
// merged cumulative snapshots of every origin as one exposition document
// with `origin="..."` labels (what obs::ScrapeServer serves at /metrics),
// and `series_json()` dumps the ring series (what /series.json serves and
// `libra top` polls).
//
// Aggregation is observation-only: the roll-up thread reads shards and
// clocks but never touches Rng or decision state, so a fleet run's digest
// is bit-identical with the aggregator on or off (tests/fleet_test.cpp and
// tests/rpc_test.cpp prove this).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace libra::obs {

// Points kept per series; at the default 1 s period, ~2 minutes of history
// per metric.
inline constexpr std::size_t kSeriesCapacity = 128;
static_assert(kSeriesCapacity >= 1);

// The longest roll-up period: the roll-up thread's wait converts the period
// to the steady clock's int64 nanoseconds and adds it to now(), so a period
// past half that range could overflow (undefined, and in practice a wait
// that returns at once, so the thread would spin).
inline constexpr double kMaxRollupPeriodMs =
    static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2) / 1e6;

struct AggregatorConfig {
  // Background roll-up period, in (0, kMaxRollupPeriodMs]. Tests and
  // benches that want deterministic collection points call rollup_now()
  // instead of start().
  double rollup_period_ms = 1000.0;
  // Origin label for the local process's global registry; non-empty.
  std::string local_origin = "controller";
};

// A remote process's cumulative snapshot plus the origin label it reports
// for itself (e.g. rpc::kStatsOrigin, via StatsAck).
struct LabeledSnapshot {
  std::string origin;
  MetricsSnapshot snapshot;
};

class Aggregator {
 public:
  // A remote source returns its current *cumulative* labeled snapshot, or
  // nullopt when unreachable (the roll-up skips it and keeps its last
  // series). A result whose origin is empty or collides with the local
  // origin is discarded the same way.
  using SnapshotFn = std::function<std::optional<LabeledSnapshot>()>;

  explicit Aggregator(AggregatorConfig cfg = {});
  ~Aggregator();
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  // Register a remote source. Safe to call before or after start().
  void add_source(SnapshotFn fn);

  // Start/stop the background roll-up thread. stop() is idempotent and
  // also runs from the destructor.
  void start();
  void stop();

  // One synchronous collection pass (what the background thread runs each
  // period): snapshot local + poll every source, fold deltas into series.
  void rollup_now();

  // Merged Prometheus exposition: every origin's cumulative metrics with
  // `origin="..."` labels, HELP/TYPE emitted once per metric name.
  std::string prometheus_text() const;

  // Ring series as one JSON object:
  //   {"period_ms":..,"rollups":..,"origins":{<origin>:{"counters":{name:
  //    {"total":..,"rate":[..]}},"gauges":{name:{"last":..,"values":[..]}},
  //    "histograms":{name:{"count":..,"p50":[..],"p95":[..],"p99":[..],
  //    "rate":[..]}}}}}
  std::string series_json() const;

 private:
  struct Ring {
    std::deque<double> pts;
    void push(double v) {
      pts.push_back(v);
      while (pts.size() > kSeriesCapacity) pts.pop_front();
    }
  };
  struct CounterSeries {
    std::uint64_t total = 0;
    Ring rate;
  };
  struct GaugeSeries {
    double last = 0.0;
    Ring values;
  };
  struct HistSeries {
    std::uint64_t count = 0;
    Ring p50, p95, p99, rate;
  };
  struct OriginState {
    bool has_last = false;
    MetricsSnapshot last;  // last cumulative snapshot (what /metrics serves)
    std::chrono::steady_clock::time_point last_at;
    std::map<std::string, CounterSeries> counters;
    std::map<std::string, GaugeSeries> gauges;
    std::map<std::string, HistSeries> histograms;
  };

  void fold_locked(const std::string& origin, const MetricsSnapshot& now_snap,
                   std::chrono::steady_clock::time_point now);

  AggregatorConfig cfg_;
  mutable std::mutex mu_;
  std::map<std::string, OriginState> origins_;
  std::vector<SnapshotFn> sources_;
  std::uint64_t rollups_ = 0;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace libra::obs
