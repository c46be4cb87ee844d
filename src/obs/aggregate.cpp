#include "obs/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace libra::obs {

namespace {

struct AggregatorMetrics {
  Counter& rollups = Registry::global().counter("obs.aggregator.rollups");
  Counter& source_errors =
      Registry::global().counter("obs.aggregator.source_errors");
  Histogram& rollup_us =
      Registry::global().histogram("obs.aggregator.rollup_us");
};

AggregatorMetrics& agg_metrics() {
  static AggregatorMetrics m;
  return m;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void append_ring(std::ostringstream& os, const std::deque<double>& pts) {
  os << "[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i) os << ",";
    os << format_double(pts[i]);
  }
  os << "]";
}

}  // namespace

Aggregator::Aggregator(AggregatorConfig cfg) : cfg_(std::move(cfg)) {
  if (!(cfg_.rollup_period_ms > 0.0)) {
    throw std::invalid_argument("obs: rollup_period_ms must be > 0");
  }
  if (cfg_.ring_capacity == 0) {
    throw std::invalid_argument("obs: ring_capacity must be > 0");
  }
}

Aggregator::~Aggregator() { stop(); }

void Aggregator::add_source(SnapshotFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::move(fn));
}

void Aggregator::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] {
    const auto period = std::chrono::duration<double, std::milli>(
        cfg_.rollup_period_ms);
    std::unique_lock<std::mutex> lk(stop_mu_);
    while (!stop_requested_) {
      if (stop_cv_.wait_for(lk, period, [this] { return stop_requested_; })) {
        break;
      }
      lk.unlock();
      rollup_now();
      lk.lock();
    }
  });
}

void Aggregator::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Aggregator::rollup_now() {
  StopWatch sw;
  // Collect outside the fold lock: a source poll is a network round trip
  // and must not block a concurrent scrape.
  std::vector<SnapshotFn> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources = sources_;
  }
  std::vector<LabeledSnapshot> collected;
  collected.push_back({cfg_.local_origin, Registry::global().snapshot()});
  for (const SnapshotFn& fn : sources) {
    std::optional<LabeledSnapshot> snap;
    try {
      snap = fn();
    } catch (const std::exception&) {
      snap.reset();
    }
    // A label that collides with the local origin would fold two processes'
    // cumulative counters into one delta chain and produce garbage rates.
    if (snap.has_value() && !snap->origin.empty() &&
        snap->origin != cfg_.local_origin) {
      collected.push_back(std::move(*snap));
    } else {
      agg_metrics().source_errors.inc();
    }
  }

  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const LabeledSnapshot& ls : collected) {
      fold_locked(ls.origin, ls.snapshot, now);
    }
    ++rollups_;
  }
  agg_metrics().rollups.inc();
  agg_metrics().rollup_us.observe(sw.elapsed_us());
}

void Aggregator::fold_locked(const std::string& origin,
                             const MetricsSnapshot& now_snap,
                             std::chrono::steady_clock::time_point now) {
  OriginState& st = origins_[origin];
  // First roll-up for an origin: the window is "everything so far", rated
  // over one period (there is no earlier collection point to measure from).
  const double dt_s =
      st.has_last
          ? std::chrono::duration<double>(now - st.last_at).count()
          : cfg_.rollup_period_ms / 1000.0;
  const MetricsSnapshot delta =
      st.has_last ? now_snap.delta_since(st.last) : now_snap;
  const double safe_dt = dt_s > 1e-9 ? dt_s : 1e-9;

  for (const auto& c : delta.counters) {
    CounterSeries& s = st.counters[c.name];
    s.rate.push(static_cast<double>(c.value) / safe_dt, cfg_.ring_capacity);
  }
  for (const auto& c : now_snap.counters) {
    st.counters[c.name].total = c.value;
  }
  for (const auto& g : now_snap.gauges) {
    GaugeSeries& s = st.gauges[g.name];
    s.last = g.value;
    s.values.push(g.value, cfg_.ring_capacity);
  }
  for (const auto& h : delta.histograms) {
    HistSeries& s = st.histograms[h.name];
    s.p50.push(h.data.quantile(0.50), cfg_.ring_capacity);
    s.p95.push(h.data.quantile(0.95), cfg_.ring_capacity);
    s.p99.push(h.data.quantile(0.99), cfg_.ring_capacity);
    s.rate.push(static_cast<double>(h.data.count) / safe_dt,
                cfg_.ring_capacity);
  }
  for (const auto& h : now_snap.histograms) {
    st.histograms[h.name].count = h.data.count;
  }

  st.last = now_snap;
  st.last_at = now;
  st.has_last = true;
}

std::string Aggregator::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group by metric name across origins: the exposition format wants one
  // HELP/TYPE header per metric name, then one sample per label set.
  std::set<std::string> counter_names, gauge_names, hist_names;
  for (const auto& [origin, st] : origins_) {
    for (const auto& c : st.last.counters) counter_names.insert(c.name);
    for (const auto& g : st.last.gauges) gauge_names.insert(g.name);
    for (const auto& h : st.last.histograms) hist_names.insert(h.name);
  }

  std::ostringstream os;
  for (const std::string& name : counter_names) {
    const std::string n = prom_metric_name(name);
    os << "# HELP " << n << " " << name << "\n"
       << "# TYPE " << n << " counter\n";
    for (const auto& [origin, st] : origins_) {
      if (const auto* c = st.last.find_counter(name)) {
        os << n << "{origin=\"" << prom_escape_label(origin) << "\"} "
           << c->value << "\n";
      }
    }
  }
  for (const std::string& name : gauge_names) {
    const std::string n = prom_metric_name(name);
    os << "# HELP " << n << " " << name << "\n"
       << "# TYPE " << n << " gauge\n";
    for (const auto& [origin, st] : origins_) {
      if (const auto* g = st.last.find_gauge(name)) {
        os << n << "{origin=\"" << prom_escape_label(origin) << "\"} "
           << format_double(g->value) << "\n";
      }
    }
  }
  for (const std::string& name : hist_names) {
    const std::string n = prom_metric_name(name);
    os << "# HELP " << n << " " << name << "\n"
       << "# TYPE " << n << " histogram\n";
    for (const auto& [origin, st] : origins_) {
      const auto* h = st.last.find_histogram(name);
      if (h == nullptr) continue;
      const std::string olabel = prom_escape_label(origin);
      const HistogramData& d = h->data;
      std::uint64_t cumulative = 0;
      std::size_t last = kHistogramBuckets;
      while (last > 1 && d.buckets[last - 1] == 0) --last;
      for (std::size_t b = 0; b < last; ++b) {
        const double upper = histogram_bucket_upper(b);
        if (std::isinf(upper)) break;
        cumulative += d.buckets[b];
        os << n << "_bucket{origin=\"" << olabel << "\",le=\""
           << format_double(upper) << "\"} " << cumulative << "\n";
      }
      os << n << "_bucket{origin=\"" << olabel << "\",le=\"+Inf\"} "
         << d.count << "\n"
         << n << "_sum{origin=\"" << olabel << "\"} "
         << format_double(d.sum) << "\n"
         << n << "_count{origin=\"" << olabel << "\"} " << d.count << "\n";
    }
  }
  return os.str();
}

std::string Aggregator::series_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"period_ms\":" << format_double(cfg_.rollup_period_ms)
     << ",\"rollups\":" << rollups_ << ",\"origins\":{";
  bool first_origin = true;
  for (const auto& [origin, st] : origins_) {
    if (!first_origin) os << ",";
    first_origin = false;
    os << "\"" << json_escape(origin) << "\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, s] : st.counters) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":{\"total\":" << s.total
         << ",\"rate\":";
      append_ring(os, s.rate.pts);
      os << "}";
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, s] : st.gauges) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":{\"last\":"
         << format_double(s.last) << ",\"values\":";
      append_ring(os, s.values.pts);
      os << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, s] : st.histograms) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":{\"count\":" << s.count
         << ",\"p50\":";
      append_ring(os, s.p50.pts);
      os << ",\"p95\":";
      append_ring(os, s.p95.pts);
      os << ",\"p99\":";
      append_ring(os, s.p99.pts);
      os << ",\"rate\":";
      append_ring(os, s.rate.pts);
      os << "}";
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace libra::obs
