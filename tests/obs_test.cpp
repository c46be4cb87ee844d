// Telemetry subsystem (obs/): registry semantics under concurrency, log2
// bucket boundaries, exporter well-formedness, and trace-span export.
//
// The global registry is process-cumulative (like any scrape endpoint), so
// every test uses uniquely named metrics and asserts on deltas, never on
// absolute process-wide state.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/span.h"
#include "util/json.h"

namespace libra {
namespace {

using util::JsonValue;
using util::parse_json;

// ---- histogram merge / snapshot delta (pure data, no registry) -------------

obs::HistogramData make_hist(std::initializer_list<double> samples) {
  obs::HistogramData d;
  for (double v : samples) {
    if (d.count == 0) {
      d.min = v;
      d.max = v;
    } else {
      d.min = std::min(d.min, v);
      d.max = std::max(d.max, v);
    }
    ++d.buckets[obs::histogram_bucket(v)];
    ++d.count;
    d.sum += v;
  }
  return d;
}

void expect_hist_eq(const obs::HistogramData& a, const obs::HistogramData& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(ObsHistogram, MergeIsOrderInvariant) {
  // Integer-valued samples so even the fp sum is exact under any grouping
  // (the same RunningStats::merge-style shuffle discipline).
  const obs::HistogramData a = make_hist({1.0, 3.0, 7.0});
  const obs::HistogramData b = make_hist({2.0, 200.0});
  const obs::HistogramData c = make_hist({0.0, 5000.0, 12.0, 64.0});

  // Every merge order and grouping lands on the same result.
  obs::HistogramData ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  obs::HistogramData a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);
  obs::HistogramData cba = c;
  cba.merge(b);
  cba.merge(a);
  expect_hist_eq(ab_c, a_bc);
  expect_hist_eq(ab_c, cba);
  EXPECT_EQ(ab_c.count, 9u);
  EXPECT_DOUBLE_EQ(ab_c.min, 0.0);
  EXPECT_DOUBLE_EQ(ab_c.max, 5000.0);
  EXPECT_DOUBLE_EQ(ab_c.sum, 1 + 3 + 7 + 2 + 200 + 0 + 5000 + 12 + 64.0);

  // The empty histogram is the identity on both sides.
  obs::HistogramData left;
  left.merge(a);
  expect_hist_eq(left, a);
  obs::HistogramData right = a;
  right.merge(obs::HistogramData{});
  expect_hist_eq(right, a);
}

TEST(ObsHistogram, DeltaSinceSubtractsWindowAndDetectsRestart) {
  const obs::HistogramData earlier = make_hist({1.0, 3.0});
  obs::HistogramData now = earlier;
  now.merge(make_hist({7.0, 9.0, 100.0}));

  const obs::HistogramData window = now.delta_since(earlier);
  EXPECT_EQ(window.count, 3u);
  EXPECT_DOUBLE_EQ(window.sum, 116.0);
  EXPECT_EQ(window.buckets[obs::histogram_bucket(7.0)], 1u);
  EXPECT_EQ(window.buckets[obs::histogram_bucket(9.0)], 1u);
  EXPECT_EQ(window.buckets[obs::histogram_bucket(100.0)], 1u);
  EXPECT_EQ(window.buckets[obs::histogram_bucket(1.0)], 0u);

  // A source that restarted (count went backwards) reports its current
  // cumulative values instead of a wrapped delta.
  const obs::HistogramData restarted = make_hist({5.0});
  expect_hist_eq(restarted.delta_since(now), restarted);
}

TEST(ObsSnapshot, DeltaSinceCountersSaturateAndNewMetricsPassThrough) {
  obs::MetricsSnapshot earlier;
  earlier.counters.push_back({"a", 10});
  earlier.counters.push_back({"b", 100});
  obs::MetricsSnapshot now;
  now.counters.push_back({"a", 25});
  now.counters.push_back({"b", 40});  // restarted: went backwards
  now.counters.push_back({"c", 7});   // registered since `earlier`
  now.gauges.push_back({"g", 3.5});
  now.histograms.push_back({"h", make_hist({2.0, 6.0})});

  const obs::MetricsSnapshot d = now.delta_since(earlier);
  EXPECT_EQ(d.find_counter("a")->value, 15u);
  EXPECT_EQ(d.find_counter("b")->value, 40u);  // saturating: current value
  EXPECT_EQ(d.find_counter("c")->value, 7u);
  EXPECT_DOUBLE_EQ(d.find_gauge("g")->value, 3.5);  // gauges: current value
  EXPECT_EQ(d.find_histogram("h")->data.count, 2u);
}

// ---- Prometheus exposition: sanitization, escaping, mini-parser ------------

TEST(ObsExport, PromNameSanitizationAndLabelEscaping) {
  EXPECT_EQ(obs::prom_metric_name("fleet.tick_latency_us"),
            "libra_fleet_tick_latency_us");
  EXPECT_EQ(obs::prom_metric_name("weird-name:1"), "libra_weird_name_1");
  EXPECT_EQ(obs::prom_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prom_escape_label("a\nb"), "a\\nb");
}

// A deliberately strict reader for the exposition format our exporters
// emit: "# HELP/TYPE" headers plus "name{labels} value" samples. Escaped
// label values are decoded, so a parse -> compare round trip catches both
// malformed structure and broken escaping.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};
struct PromDoc {
  std::map<std::string, std::string> types;  // metric name -> counter/...
  std::map<std::string, std::string> helps;
  std::vector<PromSample> samples;
};

PromDoc parse_prometheus(const std::string& text) {
  PromDoc doc;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name, rest;
      ls >> hash >> kind >> name;
      std::getline(ls >> std::ws, rest);
      if (kind == "TYPE") {
        // One TYPE per metric name, and it must precede every sample
        // (checked below by samples-so-far not containing the name).
        EXPECT_EQ(doc.types.count(name), 0u) << "duplicate TYPE for " << name;
        for (const PromSample& s : doc.samples) {
          EXPECT_FALSE(s.name.rfind(name, 0) == 0)
              << "TYPE after samples of " << name;
        }
        doc.types[name] = rest;
      } else if (kind == "HELP") {
        doc.helps[name] = rest;
      } else {
        ADD_FAILURE() << "unknown comment line: " << line;
      }
      continue;
    }
    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = line.substr(0, i);
    EXPECT_FALSE(s.name.empty());
    for (char c : s.name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name byte in " << s.name;
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          ADD_FAILURE() << "malformed label in: " << line;
          return doc;
        }
        const std::string key = line.substr(i, eq - i);
        std::string val;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            const char e = line[j + 1];
            val += e == 'n' ? '\n' : e;
            j += 2;
          } else {
            val += line[j++];
          }
        }
        if (j >= line.size()) {
          ADD_FAILURE() << "unterminated label value: " << line;
          return doc;
        }
        s.labels[key] = val;
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) {
        ADD_FAILURE() << "unterminated label set: " << line;
        return doc;
      }
      ++i;  // '}'
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) {
      ADD_FAILURE() << "sample without value: " << line;
      return doc;
    }
    s.value = std::stod(line.substr(i));
    doc.samples.push_back(std::move(s));
  }
  return doc;
}

// Cross-check one histogram's bucket series: cumulative counts must be
// monotone and the +Inf bucket must equal _count.
void expect_valid_histogram(const PromDoc& doc, const std::string& base,
                            const std::map<std::string, std::string>& labels) {
  double prev = 0.0, inf = -1.0, count = -1.0;
  for (const PromSample& s : doc.samples) {
    auto rest_match = [&](const PromSample& sample) {
      for (const auto& [k, v] : labels) {
        const auto it = sample.labels.find(k);
        if (it == sample.labels.end() || it->second != v) return false;
      }
      return true;
    };
    if (!rest_match(s)) continue;
    if (s.name == base + "_bucket") {
      EXPECT_GE(s.value, prev) << "bucket series not cumulative for " << base;
      prev = s.value;
      if (s.labels.count("le") && s.labels.at("le") == "+Inf") inf = s.value;
    } else if (s.name == base + "_count") {
      count = s.value;
    }
  }
  EXPECT_GE(inf, 0.0) << "missing +Inf bucket for " << base;
  EXPECT_EQ(inf, count) << "+Inf bucket != _count for " << base;
}

TEST(ObsExport, SnapshotPrometheusRoundTripsThroughParser) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"obs_test.parser.counter", 42});
  snap.gauges.push_back({"obs_test.parser.gauge", -2.5});
  snap.histograms.push_back({"obs_test.parser.hist", make_hist({3.0, 90.0})});

  const PromDoc doc = parse_prometheus(snap.to_prometheus());
  EXPECT_EQ(doc.types.at("libra_obs_test_parser_counter"), "counter");
  EXPECT_EQ(doc.types.at("libra_obs_test_parser_gauge"), "gauge");
  EXPECT_EQ(doc.types.at("libra_obs_test_parser_hist"), "histogram");
  EXPECT_EQ(doc.helps.count("libra_obs_test_parser_counter"), 1u);

  bool saw_counter = false;
  for (const PromSample& s : doc.samples) {
    if (s.name == "libra_obs_test_parser_counter") {
      saw_counter = true;
      EXPECT_EQ(s.value, 42.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  expect_valid_histogram(doc, "libra_obs_test_parser_hist", {});
}

TEST(ObsRegistry, HandlesAreFindOrRegister) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("obs_test.same_name");
  obs::Counter& b = reg.counter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            std::string_view name) {
  const auto* c = snap.find_counter(name);
  return c ? c->value : 0;
}

TEST(ObsRegistry, ConcurrentCounterSumsExactly) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("obs_test.concurrent");
  const std::uint64_t before =
      counter_value(reg.snapshot(), "obs_test.concurrent");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncsPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& t : threads) t.join();

  // Every bump lands in its own thread's shard; the merge must lose none.
  const std::uint64_t after =
      counter_value(reg.snapshot(), "obs_test.concurrent");
  EXPECT_EQ(after - before, kThreads * kIncsPerThread);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  obs::Gauge& g = obs::Registry::global().gauge("obs_test.gauge");
  g.set(3.5);
  const obs::MetricsSnapshot after_set = obs::Registry::global().snapshot();
  const auto* set = after_set.find_gauge("obs_test.gauge");
  ASSERT_NE(set, nullptr);
  EXPECT_DOUBLE_EQ(set->value, 3.5);
  g.add(-1.25);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* gv = snap.find_gauge("obs_test.gauge");
  ASSERT_NE(gv, nullptr);
  EXPECT_DOUBLE_EQ(gv->value, 2.25);
}

TEST(ObsRegistry, HistogramObservationsMergeIntoSnapshot) {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& h = reg.histogram("obs_test.hist");
  h.observe(3.0);
  h.observe(5.0);
  h.observe(100.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* hv = snap.find_histogram("obs_test.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->data.count, 3u);
  EXPECT_DOUBLE_EQ(hv->data.sum, 108.0);
  EXPECT_DOUBLE_EQ(hv->data.min, 3.0);
  EXPECT_DOUBLE_EQ(hv->data.max, 100.0);
  EXPECT_EQ(hv->data.buckets[obs::histogram_bucket(3.0)], 1u);   // [2, 4)
  EXPECT_EQ(hv->data.buckets[obs::histogram_bucket(5.0)], 1u);   // [4, 8)
  EXPECT_EQ(hv->data.buckets[obs::histogram_bucket(100.0)], 1u);  // [64, 128)
}

TEST(ObsRegistry, RuntimeDisableIsANullSink) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.disabled");
  obs::Histogram& h = reg.histogram("obs_test.disabled_hist");
  const obs::MetricsSnapshot before = reg.snapshot();
  const std::size_t events_before = obs::TraceBuffer::global().event_count();

  obs::set_enabled(false);
  c.inc(10);
  h.observe(42.0);
  { OBS_SPAN("obs_test.disabled_span"); }
  obs::set_enabled(true);

  const obs::MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(counter_value(after, "obs_test.disabled"),
            counter_value(before, "obs_test.disabled"));
  const auto* hv = after.find_histogram("obs_test.disabled_hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->data.count, 0u);
  EXPECT_EQ(obs::TraceBuffer::global().event_count(), events_before);
}

TEST(ObsTrace, SpanExportIsValidChromeTraceJson) {
  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  {
    OBS_SPAN("obs_test.outer");
    { OBS_SPAN("obs_test.inner"); }
  }
  ASSERT_GE(buf.event_count(), 2u);

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  buf.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();

  const JsonValue root = parse_json(ss.str());
  ASSERT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->array.size(), 2u);

  bool saw_outer = false, saw_inner = false;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    const JsonValue* dur = e.find("dur");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(ph->str, "X");  // complete duration events only
    EXPECT_TRUE(ts->is_number());
    EXPECT_TRUE(dur->is_number());
    EXPECT_GE(dur->number, 0.0);
    saw_outer |= name->str == "obs_test.outer";
    saw_inner |= name->str == "obs_test.inner";
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  buf.clear();
}

TEST(ObsExport, PrometheusContainsCumulativeBuckets) {
  obs::Registry& reg = obs::Registry::global();
  reg.histogram("obs_test.prom_hist").observe(3.0);
  const std::string prom = reg.snapshot().to_prometheus();
  EXPECT_NE(prom.find("libra_obs_test_prom_hist_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(prom.find("libra_obs_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("libra_obs_test_prom_hist_sum"), std::string::npos);
  EXPECT_NE(prom.find("libra_obs_test_prom_hist_count"), std::string::npos);
}

// ---- aggregator: roll-ups, multi-origin merge, series feed -----------------

// Roll-ups completed so far, as series_json() reports them.
double rollups(const obs::Aggregator& agg) {
  return parse_json(agg.series_json()).find("rollups")->number;
}

// A period whose wait would overflow the clock's int64 nanoseconds (+inf,
// 1e300) must throw: accepted, it made the roll-up thread's wait return
// at once, so the thread spun.
TEST(ObsAggregator, RejectsBadConfig) {
  for (const double bad :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e300,
        std::nextafter(obs::kMaxRollupPeriodMs, 1e300)}) {
    obs::AggregatorConfig cfg;
    cfg.rollup_period_ms = bad;
    EXPECT_THROW(obs::Aggregator{cfg}, std::invalid_argument) << bad;
  }
  obs::AggregatorConfig longest;
  longest.rollup_period_ms = obs::kMaxRollupPeriodMs;
  EXPECT_NO_THROW(obs::Aggregator{longest});

  obs::AggregatorConfig no_origin;
  no_origin.local_origin.clear();
  EXPECT_THROW(obs::Aggregator{no_origin}, std::invalid_argument);
}

// The longest accepted period still parks the roll-up thread: nothing
// rolls up until stop().
TEST(ObsAggregator, LongestPeriodDoesNotSpin) {
  obs::AggregatorConfig cfg;
  cfg.rollup_period_ms = obs::kMaxRollupPeriodMs;
  obs::Aggregator agg(cfg);
  agg.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  agg.stop();
  EXPECT_EQ(rollups(agg), 0.0);
}

TEST(ObsAggregator, RollupFoldsLocalRegistryIntoSeries) {
  obs::Counter& c = obs::Registry::global().counter("obs_test.agg_local");
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_test.agg_local_hist");
  obs::Aggregator agg;  // local_origin defaults to "controller"

  c.inc(5);
  h.observe(16.0);
  agg.rollup_now();
  c.inc(7);
  agg.rollup_now();
  EXPECT_EQ(rollups(agg), 2.0);

  const JsonValue root = parse_json(agg.series_json());
  const JsonValue* origins = root.find("origins");
  ASSERT_NE(origins, nullptr);
  const JsonValue* ctl = origins->find("controller");
  ASSERT_NE(ctl, nullptr);
  const JsonValue* counters = ctl->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* series = counters->find("obs_test.agg_local");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->find("total")->number, 12.0);
  const JsonValue* rate = series->find("rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->array.size(), 2u);
  EXPECT_GT(rate->array[0].number, 0.0);  // first window: the 5-inc
  const JsonValue* hist =
      ctl->find("histograms")->find("obs_test.agg_local_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
  ASSERT_EQ(hist->find("p99")->array.size(), 2u);

  // The merged exposition carries the local origin label and parses.
  const PromDoc doc = parse_prometheus(agg.prometheus_text());
  bool saw = false;
  for (const PromSample& s : doc.samples) {
    if (s.name == "libra_obs_test_agg_local") {
      saw = true;
      EXPECT_EQ(s.labels.at("origin"), "controller");
      EXPECT_EQ(s.value, 12.0);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(ObsAggregator, MergesRemoteSourceUnderItsOwnOrigin) {
  obs::Aggregator agg;
  agg.add_source([]() -> std::optional<obs::LabeledSnapshot> {
    obs::MetricsSnapshot snap;
    snap.counters.push_back({"obs_test.remote_counter", 42});
    snap.histograms.push_back({"obs_test.remote_hist", make_hist({8.0})});
    return obs::LabeledSnapshot{"daemon", std::move(snap)};
  });
  agg.rollup_now();

  const PromDoc doc = parse_prometheus(agg.prometheus_text());
  bool saw_remote = false, saw_local_origin = false;
  for (const PromSample& s : doc.samples) {
    if (s.name == "libra_obs_test_remote_counter") {
      saw_remote = true;
      EXPECT_EQ(s.labels.at("origin"), "daemon");
      EXPECT_EQ(s.value, 42.0);
    }
    if (s.labels.count("origin") && s.labels.at("origin") == "controller") {
      saw_local_origin = true;
    }
  }
  EXPECT_TRUE(saw_remote);
  EXPECT_TRUE(saw_local_origin);
  expect_valid_histogram(doc, "libra_obs_test_remote_hist",
                         {{"origin", "daemon"}});

  const JsonValue root = parse_json(agg.series_json());
  EXPECT_NE(root.find("origins")->find("daemon"), nullptr);
}

TEST(ObsAggregator, HostileSourcesAreCountedNotFatal) {
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  obs::Aggregator agg;
  agg.add_source([]() -> std::optional<obs::LabeledSnapshot> {
    throw std::runtime_error("daemon hung up");
  });
  agg.add_source([]() -> std::optional<obs::LabeledSnapshot> {
    // Colliding with the local origin would corrupt the delta chain; the
    // roll-up must discard it.
    return obs::LabeledSnapshot{"controller", obs::MetricsSnapshot{}};
  });
  agg.add_source([]() -> std::optional<obs::LabeledSnapshot> {
    return obs::LabeledSnapshot{"", obs::MetricsSnapshot{}};
  });
  agg.rollup_now();
  EXPECT_EQ(rollups(agg), 1.0);
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(counter_value(after, "obs.aggregator.source_errors") -
                counter_value(before, "obs.aggregator.source_errors"),
            3u);
}

TEST(ObsAggregator, BackgroundThreadRollsUp) {
  obs::AggregatorConfig cfg;
  cfg.rollup_period_ms = 5.0;
  obs::Aggregator agg(cfg);
  agg.start();
  for (int i = 0; i < 200 && rollups(agg) < 3.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  agg.stop();
  EXPECT_GE(rollups(agg), 3.0);
}

// ---- scrape server: routes and hostile requests ----------------------------

// Raw request helper for the negative tests http_get cannot express.
std::string raw_http_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  (void)::send(fd, request.data(), request.size(), 0);
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ObsScrape, ServesMetricsHealthzAndSeries) {
  obs::Registry::global().counter("obs_test.scrape_counter").inc(3);
  obs::Aggregator agg;
  agg.rollup_now();
  obs::ScrapeServer server(agg);  // port 0: ephemeral
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto health = obs::http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  const auto metrics = obs::http_get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  const PromDoc doc = parse_prometheus(metrics->body);
  bool saw = false;
  for (const PromSample& s : doc.samples) {
    saw |= s.name == "libra_obs_test_scrape_counter";
  }
  EXPECT_TRUE(saw);

  const auto series =
      obs::http_get("127.0.0.1", server.port(), "/series.json");
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->status, 200);
  EXPECT_TRUE(parse_json(series->body).is_object());

  const auto missing = obs::http_get("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  server.stop();
  EXPECT_FALSE(server.running());
  // A stopped server refuses connections.
  EXPECT_FALSE(
      obs::http_get("127.0.0.1", server.port(), "/healthz").has_value());
}

// One negative case per ScrapeConfig field: the port at construction, the
// host when start() parses it.
TEST(ObsScrape, RejectsBadConfig) {
  obs::Aggregator agg;
  for (const int bad : {-1, 65536}) {
    obs::ScrapeConfig cfg;
    cfg.port = bad;
    EXPECT_THROW(obs::ScrapeServer(agg, cfg), std::invalid_argument) << bad;
  }
  obs::ScrapeConfig cfg;
  cfg.host = "not-an-address";
  obs::ScrapeServer server(agg, cfg);
  EXPECT_THROW(server.start(), std::runtime_error);
  EXPECT_FALSE(server.running());
}

TEST(ObsScrape, RejectsHostileRequests) {
  obs::Aggregator agg;
  obs::ScrapeServer server(agg);
  server.start();

  // Non-GET methods are refused.
  EXPECT_NE(raw_http_exchange(server.port(),
                              "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  // A request line without METHOD SP PATH SP VERSION is malformed.
  EXPECT_NE(raw_http_exchange(server.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  // A request head past the cap (no newline, so the server keeps reading)
  // is cut off with 431, not buffered without bound.
  EXPECT_NE(raw_http_exchange(server.port(),
                              std::string(2 * obs::kMaxRequestBytes, 'A'))
                .find("431"),
            std::string::npos);
  // The server survives all of the above and still serves.
  const auto health = obs::http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
}

// ---- trace context: nesting, adoption, merged exports ----------------------

// Export the global buffer and return the parsed traceEvents array.
JsonValue exported_events() {
  const JsonValue root =
      parse_json(obs::TraceBuffer::global().to_chrome_json());
  const JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  return events != nullptr ? *events : JsonValue{};
}

const JsonValue* find_event(const JsonValue& events,
                                     const std::string& name) {
  for (const JsonValue& e : events.array) {
    const JsonValue* n = e.find("name");
    if (n != nullptr && n->str == name) return &e;
  }
  return nullptr;
}

TEST(ObsTrace, NestedSpansShareATraceAndParentLinks) {
  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  {
    OBS_SPAN("obs_test.trace_outer");
    { OBS_SPAN("obs_test.trace_inner"); }
  }
  const JsonValue events = exported_events();
  const JsonValue* outer =
      find_event(events, "obs_test.trace_outer");
  const JsonValue* inner =
      find_event(events, "obs_test.trace_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  const JsonValue* oargs = outer->find("args");
  const JsonValue* iargs = inner->find("args");
  ASSERT_NE(oargs, nullptr);
  ASSERT_NE(iargs, nullptr);
  // Same trace, inner parented under outer, outer is a root.
  EXPECT_EQ(oargs->find("trace")->str, iargs->find("trace")->str);
  EXPECT_EQ(iargs->find("parent")->str, oargs->find("span")->str);
  EXPECT_EQ(oargs->find("parent")->str, "0x0");
  buf.clear();
}

TEST(ObsTrace, ContextScopeAdoptsRemoteParent) {
  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  const obs::TraceContext remote{0x1234abcdu, 0x77u};
  {
    obs::TraceContextScope scope(remote);
    OBS_SPAN("obs_test.trace_adopted");
  }
  // The scope restores the previous (empty) context on exit.
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
  const JsonValue events = exported_events();
  const JsonValue* e = find_event(events, "obs_test.trace_adopted");
  ASSERT_NE(e, nullptr);
  const JsonValue* args = e->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("trace")->str, "0x1234abcd");
  EXPECT_EQ(args->find("parent")->str, "0x77");
  buf.clear();
}

TEST(ObsTrace, NextTraceIdIsNeverZeroAndMonotone) {
  const std::uint64_t a = obs::next_trace_id();
  const std::uint64_t b = obs::next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(ObsHistogram, Log2BucketBoundaries) {
  // Bucket 0 holds v < 1 (and NaN); bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(obs::histogram_bucket(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(0.5), 0u);
  EXPECT_EQ(obs::histogram_bucket(-3.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(std::nan("")), 0u);
  EXPECT_EQ(obs::histogram_bucket(1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket(1.5), 1u);
  EXPECT_EQ(obs::histogram_bucket(2.0), 2u);
  EXPECT_EQ(obs::histogram_bucket(3.0), 2u);
  EXPECT_EQ(obs::histogram_bucket(4.0), 3u);
  EXPECT_EQ(obs::histogram_bucket(1023.0), 10u);
  EXPECT_EQ(obs::histogram_bucket(1024.0), 11u);
  // Everything past the last boundary lands in the final bucket.
  EXPECT_EQ(obs::histogram_bucket(1e300), obs::kHistogramBuckets - 1);

  // Bounds round-trip: lower(b) maps into b, upper(b) into b+1.
  for (std::size_t b = 1; b + 1 < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(obs::histogram_bucket(obs::histogram_bucket_lower(b)), b);
    EXPECT_EQ(obs::histogram_bucket(obs::histogram_bucket_upper(b)), b + 1);
  }
  EXPECT_TRUE(
      std::isinf(obs::histogram_bucket_upper(obs::kHistogramBuckets - 1)));
}

TEST(ObsHistogram, QuantileInterpolatesWithinBucket) {
  obs::HistogramData d;
  // 10 samples of 3.0: everything lives in bucket [2, 4).
  d.count = 10;
  d.sum = 30.0;
  d.min = 3.0;
  d.max = 3.0;
  d.buckets[obs::histogram_bucket(3.0)] = 10;
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  // The estimate interpolates inside [2, 4) but clamps to [min, max].
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 3.0);

  obs::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

}  // namespace
}  // namespace libra
