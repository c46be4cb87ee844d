#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace libra::obs {

double histogram_bucket_upper(std::size_t b) {
  if (b + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(std::uint64_t{1} << b);
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target && buckets[b] > 0) {
      // Interpolate inside the bucket, then clamp to the observed range
      // (the first/last buckets would otherwise over-reach).
      const double lo = histogram_bucket_lower(b);
      double hi = histogram_bucket_upper(b);
      if (std::isinf(hi)) hi = max;
      const double in_bucket =
          static_cast<double>(buckets[b]) -
          (static_cast<double>(cumulative) - target);
      const double frac = in_bucket / static_cast<double>(buckets[b]);
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
  }
  return max;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum += other.sum;
}

HistogramData HistogramData::delta_since(const HistogramData& earlier) const {
  // A lower current count means the source restarted; report the current
  // cumulative view as the window instead of a wrapped subtraction.
  if (count < earlier.count) return *this;
  HistogramData d;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    d.buckets[b] =
        buckets[b] >= earlier.buckets[b] ? buckets[b] - earlier.buckets[b] : 0;
  }
  d.count = count - earlier.count;
  d.sum = sum - earlier.sum;
  d.min = min;
  d.max = max;
  return d;
}

// ---------------------------------------------------------------------------
// Registry internals

namespace {

// Monotonic registry ids let thread-local shard caches survive registry
// destruction without ever dereferencing a dead registry: cache entries key
// on the uid and own the shard via shared_ptr.
std::atomic<std::uint64_t> g_registry_uid{0};

struct ShardCacheEntry {
  std::uint64_t uid = 0;
  std::shared_ptr<detail::Shard> shard;
};

thread_local std::vector<ShardCacheEntry> t_shard_cache;

}  // namespace

struct Registry::Impl {
  std::uint64_t uid = ++g_registry_uid;
  mutable std::mutex mu;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids;
  std::map<std::string, std::uint32_t, std::less<>> gauge_ids;
  std::map<std::string, std::uint32_t, std::less<>> histogram_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  // Deques keep handle addresses stable across registration.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::array<std::atomic<double>, kMaxGauges> gauge_values{};
  std::vector<std::shared_ptr<detail::Shard>> shards;
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

detail::Shard& Registry::local_shard() {
  for (const ShardCacheEntry& e : t_shard_cache) {
    if (e.uid == impl_->uid) return *e.shard;
  }
  auto shard = std::make_shared<detail::Shard>();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shards.push_back(shard);
  }
  t_shard_cache.push_back({impl_->uid, shard});
  return *shard;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->counter_ids.find(name);
  if (it != impl_->counter_ids.end()) return impl_->counters[it->second];
  if (impl_->counters.size() >= kMaxCounters) {
    throw std::length_error("obs: counter capacity exhausted");
  }
  const auto id = static_cast<std::uint32_t>(impl_->counters.size());
  impl_->counter_ids.emplace(std::string(name), id);
  impl_->counter_names.emplace_back(name);
  impl_->counters.push_back(Counter(this, id));
  return impl_->counters.back();
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->gauge_ids.find(name);
  if (it != impl_->gauge_ids.end()) return impl_->gauges[it->second];
  if (impl_->gauges.size() >= kMaxGauges) {
    throw std::length_error("obs: gauge capacity exhausted");
  }
  const auto id = static_cast<std::uint32_t>(impl_->gauges.size());
  impl_->gauge_ids.emplace(std::string(name), id);
  impl_->gauge_names.emplace_back(name);
  impl_->gauges.push_back(Gauge(this, id));
  return impl_->gauges.back();
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->histogram_ids.find(name);
  if (it != impl_->histogram_ids.end()) return impl_->histograms[it->second];
  if (impl_->histograms.size() >= kMaxHistograms) {
    throw std::length_error("obs: histogram capacity exhausted");
  }
  const auto id = static_cast<std::uint32_t>(impl_->histograms.size());
  impl_->histogram_ids.emplace(std::string(name), id);
  impl_->histogram_names.emplace_back(name);
  impl_->histograms.push_back(Histogram(this, id));
  return impl_->histograms.back();
}

void Gauge::set(double v) {
  if (!enabled()) return;
  reg_->impl_->gauge_values[id_].store(v, std::memory_order_relaxed);
}

void Gauge::add(double delta) {
  if (!enabled()) return;
  std::atomic<double>& slot = reg_->impl_->gauge_values[id_];
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);

  snap.counters.resize(impl_->counter_names.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i].name = impl_->counter_names[i];
  }
  snap.gauges.resize(impl_->gauge_names.size());
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    snap.gauges[i].name = impl_->gauge_names[i];
    snap.gauges[i].value =
        impl_->gauge_values[i].load(std::memory_order_relaxed);
  }
  snap.histograms.resize(impl_->histogram_names.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    snap.histograms[i].name = impl_->histogram_names[i];
  }

  for (const std::shared_ptr<detail::Shard>& shard : impl_->shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const detail::HistShard& hs = shard->hists[i];
      const std::uint64_t n = hs.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      HistogramData view;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        view.buckets[b] = hs.buckets[b].load(std::memory_order_relaxed);
      }
      view.count = n;
      view.sum = hs.sum.load(std::memory_order_relaxed);
      view.min = hs.min.load(std::memory_order_relaxed);
      view.max = hs.max.load(std::memory_order_relaxed);
      snap.histograms[i].data.merge(view);
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Snapshot lookups and exporters

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot d = *this;
  for (CounterValue& c : d.counters) {
    if (const CounterValue* prev = earlier.find_counter(c.name)) {
      c.value = c.value >= prev->value ? c.value - prev->value : c.value;
    }
  }
  for (HistogramValue& h : d.histograms) {
    if (const HistogramValue* prev = earlier.find_histogram(h.name)) {
      h.data = h.data.delta_since(prev->data);
    }
  }
  return d;
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string prom_metric_name(std::string_view name) {
  std::string out = "libra_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const CounterValue& c : counters) {
    os << c.name << " " << c.value << "\n";
  }
  for (const GaugeValue& g : gauges) {
    os << g.name << " " << format_double(g.value) << "\n";
  }
  for (const HistogramValue& h : histograms) {
    os << h.name << " count=" << h.data.count
       << " mean=" << format_double(h.data.mean())
       << " p50=" << format_double(h.data.quantile(0.5))
       << " p99=" << format_double(h.data.quantile(0.99))
       << " min=" << format_double(h.data.min)
       << " max=" << format_double(h.data.max) << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterValue& c : counters) {
    const std::string n = prom_metric_name(c.name);
    os << "# HELP " << n << " " << c.name << "\n"
       << "# TYPE " << n << " counter\n"
       << n << " " << c.value << "\n";
  }
  for (const GaugeValue& g : gauges) {
    const std::string n = prom_metric_name(g.name);
    os << "# HELP " << n << " " << g.name << "\n"
       << "# TYPE " << n << " gauge\n"
       << n << " " << format_double(g.value) << "\n";
  }
  for (const HistogramValue& h : histograms) {
    const std::string n = prom_metric_name(h.name);
    const HistogramData& d = h.data;
    os << "# HELP " << n << " " << h.name << "\n"
       << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    std::size_t last = kHistogramBuckets;
    while (last > 1 && d.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      const double upper = histogram_bucket_upper(b);
      if (std::isinf(upper)) break;  // the +Inf line below covers it
      cumulative += d.buckets[b];
      os << n << "_bucket{le=\"" << format_double(upper) << "\"} "
         << cumulative << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << d.count << "\n"
       << n << "_sum " << format_double(d.sum) << "\n"
       << n << "_count " << d.count << "\n";
  }
  return os.str();
}

}  // namespace libra::obs
