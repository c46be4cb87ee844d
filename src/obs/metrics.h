// Telemetry metrics: a thread-safe registry of named counters, gauges and
// log2-bucketed histograms, built for hot-path instrumentation of the fleet
// serving pipeline.
//
// Design (the same shape as production scrape pipelines):
//
//   - Handles (`Counter&`, `Gauge&`, `Histogram&`) are registered once by
//     name and cached by the call site; registration takes a mutex, the
//     handles themselves are trivially copy-free references that stay valid
//     for the registry's lifetime.
//   - Counter bumps and histogram observations land in *per-thread shards*
//     (relaxed atomics that only the owning thread writes), so the hot path
//     is wait-free: no locks, no contended cache lines. A scrape
//     (`Registry::snapshot()`) walks the shards under the registration
//     mutex and merges them.
//   - Histograms use log2 buckets: bucket 0 holds values < 1, bucket b >= 1
//     holds [2^(b-1), 2^b). With 40 buckets a microsecond-valued histogram
//     spans sub-us to ~6 days.
//   - Telemetry is observation-only: it reads clocks but never touches
//     `util::Rng` or any decision state, so enabling/disabling it cannot
//     perturb simulation results (tests/fleet_test.cpp proves this
//     bit-for-bit).
//
// Disabling: `set_enabled(false)` is the one off switch, a runtime null-sink
// fast path (one relaxed atomic load and an early-out, a few nanoseconds per
// site).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace libra::obs {

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

// Runtime null-sink switch. Recording sites early-out when disabled; the
// registry itself (names, handles) is unaffected.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// Fixed shard capacities: registration beyond these throws. Generous for
// this codebase (a few dozen metrics) while keeping per-thread shards a
// fixed-size allocation that never resizes under a concurrent scrape.
inline constexpr std::size_t kMaxCounters = 192;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 64;
inline constexpr std::size_t kHistogramBuckets = 40;

// Log2 bucket index: 0 for values < 1 (and NaN), else bit_width(floor(v))
// capped to the last bucket, i.e. bucket b >= 1 covers [2^(b-1), 2^b).
inline std::size_t histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;
  if (v >= 9.2e18) return kHistogramBuckets - 1;  // beyond uint64 range
  const auto u = static_cast<std::uint64_t>(v);
  return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(u)),
                               kHistogramBuckets - 1);
}
// Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
inline double histogram_bucket_lower(std::size_t b) {
  return b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
}
// Exclusive upper bound of bucket b (1, 2, 4, 8, ...); +inf for the last.
double histogram_bucket_upper(std::size_t b);

class Registry;

namespace detail {

// One thread's slice of every metric. Only the owning thread writes;
// scrapes read the atomics with relaxed loads.
struct HistShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};  // valid only when count > 0
  std::atomic<double> max{0.0};
};

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistShard, kMaxHistograms> hists{};
};

}  // namespace detail

// Merged view of one histogram at scrape time.
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  // Quantile estimate from the buckets (linear interpolation inside the
  // winning bucket, clamped to [min, max]); q in [0, 1].
  double quantile(double q) const;

  // Fold `other` into this histogram. An empty side is the identity, bucket
  // and count adds are exact integer sums, and min/max are true extrema, so
  // merging shard views in any order (or any grouping) yields the same
  // result -- the associativity contract Registry::snapshot() and
  // obs::Aggregator rely on. (The fp `sum` is the one field where grouping
  // can differ in the last ulp; integer-valued samples merge exactly.)
  void merge(const HistogramData& other);
  // Windowed view of this cumulative histogram since `earlier`: bucket and
  // count deltas saturate at zero (a restarted source yields its current
  // values rather than wrapping). min/max cannot be recovered for a window
  // from cumulative extrema, so they stay lifetime extrema.
  HistogramData delta_since(const HistogramData& earlier) const;
};

// Point-in-time scrape of every registered metric, detached from the
// registry (safe to keep, copy, or ship inside a result struct).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    HistogramData data;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* find_counter(std::string_view name) const;
  const GaugeValue* find_gauge(std::string_view name) const;
  const HistogramValue* find_histogram(std::string_view name) const;

  // What happened since `earlier`: counters and histogram buckets are
  // saturating-subtracted (a source that reset reports its current values
  // rather than a wrapped delta), gauges keep their current value, and
  // metrics registered since `earlier` pass through unchanged.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  // Human-readable multi-line dump (the `--metrics` default).
  std::string to_text() const;
  // Prometheus exposition format: names are prefixed "libra_" and dots
  // become underscores; histograms emit cumulative `_bucket{le="..."}`
  // series plus `_sum` and `_count`. Every metric gets `# HELP` / `# TYPE`
  // header lines.
  std::string to_prometheus() const;
};

// Prometheus metric name sanitizer: "libra_" prefix, [a-zA-Z0-9_] body
// (every other byte becomes '_'). Shared by to_prometheus() and the
// aggregator's merged multi-origin exposition.
std::string prom_metric_name(std::string_view name);
// Escape a label value per the exposition format: backslash, double quote
// and newline are escaped.
std::string prom_escape_label(std::string_view value);

// A named monotonically increasing counter. Wait-free inc on the calling
// thread's shard.
class Counter {
 public:
  void inc(std::uint64_t n = 1);

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_;
  std::uint32_t id_;
};

// A named point-in-time value (queue depth, occupancy). Gauges are global
// (not sharded): set/add are single relaxed atomics, fine for their
// call-sites' rates.
class Gauge {
 public:
  void set(double v);
  void add(double delta);

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_;
  std::uint32_t id_;
};

// A named log2-bucketed distribution (latencies, batch sizes). Wait-free
// observe on the calling thread's shard.
class Histogram {
 public:
  void observe(double v);

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  Registry* reg_;
  std::uint32_t id_;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

  // Find-or-register by name; the returned reference is stable for the
  // registry's lifetime. Throws std::length_error past the shard capacity.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Merge every thread's shards into one detached snapshot.
  MetricsSnapshot snapshot() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  detail::Shard& local_shard();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Wall-clock stopwatch over std::chrono::steady_clock. Always live (even
// with set_enabled(false)) -- it is the timing primitive results like
// FleetResult::tick_latency_us are built on, telemetry or not.
class StopWatch {
 public:
  StopWatch() : t0_(std::chrono::steady_clock::now()) {}
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// ---- inline hot paths ----

inline void Counter::inc(std::uint64_t n) {
  if (!enabled()) return;
  reg_->local_shard().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

inline void Histogram::observe(double v) {
  if (!enabled()) return;
  detail::HistShard& h = reg_->local_shard().hists[id_];
  h.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  // Only this thread writes the shard, so load-then-store is race-free;
  // relaxed atomics make the scrape's concurrent reads well-defined.
  const std::uint64_t before = h.count.load(std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
  if (before == 0 || v < h.min.load(std::memory_order_relaxed)) {
    h.min.store(v, std::memory_order_relaxed);
  }
  if (before == 0 || v > h.max.load(std::memory_order_relaxed)) {
    h.max.store(v, std::memory_order_relaxed);
  }
  h.count.store(before + 1, std::memory_order_relaxed);
}

}  // namespace libra::obs
