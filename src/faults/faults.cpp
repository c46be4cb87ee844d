#include "faults/faults.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace libra::faults {

namespace {

constexpr std::array<std::string_view, kNumFaultKinds> kKindNames = {
    "drop_ack",          "duplicate_ack",      "stale_phy",
    "garbage_phy",       "truncate_features",  "classifier_outage",
    "beam_training_failure", "clock_skew",     "rpc_drop",
    "rpc_delay"};

// One counter per kind plus the total, pre-registered so the per-frame
// query path never builds a metric name.
struct FaultMetrics {
  obs::Counter& injected;
  std::array<obs::Counter*, kNumFaultKinds> by_kind;
};
FaultMetrics& fault_metrics() {
  static FaultMetrics m = [] {
    obs::Registry& r = obs::Registry::global();
    FaultMetrics fm{r.counter("faults.injected"), {}};
    for (int k = 0; k < kNumFaultKinds; ++k) {
      fm.by_kind[static_cast<std::size_t>(k)] = &r.counter(
          "faults.injected." + std::string(kKindNames[(std::size_t)k]));
    }
    return fm;
  }();
  return m;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  const int k = static_cast<int>(kind);
  if (k < 0 || k >= kNumFaultKinds) return "unknown";
  return kKindNames[static_cast<std::size_t>(k)];
}

FaultPlan& FaultPlan::add(FaultKind kind, double probability, double start_ms,
                          double end_ms, double magnitude) {
  windows.push_back({kind, probability, start_ms, end_ms, magnitude});
  return *this;
}

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const FaultWindow& w = windows[i];
    const std::string where = "FaultPlan window " + std::to_string(i) + " (" +
                              std::string(to_string(w.kind)) + "): ";
    if (!(w.probability >= 0.0) || !(w.probability <= 1.0)) {
      throw std::invalid_argument(where + "probability must be in [0, 1], got " +
                                  std::to_string(w.probability));
    }
    if (std::isnan(w.start_ms) || std::isnan(w.end_ms) ||
        !(w.start_ms <= w.end_ms)) {
      throw std::invalid_argument(where + "window must satisfy start <= end");
    }
    if (!std::isfinite(w.magnitude)) {
      throw std::invalid_argument(where + "magnitude must be finite");
    }
    if (w.kind == FaultKind::kClockSkew && !(w.magnitude > -1.0)) {
      throw std::invalid_argument(
          where + "clock skew must be > -1 (time cannot stop or reverse)");
    }
    if (w.kind == FaultKind::kTruncateFeatures &&
        (w.magnitude < 0.0 || w.magnitude > 1.0)) {
      throw std::invalid_argument(
          where + "truncation keep-fraction must be in [0, 1]");
    }
    if (w.kind == FaultKind::kRpcDelay && w.magnitude < 0.0) {
      throw std::invalid_argument(
          where + "rpc delay must be >= 0 ms, got " +
          std::to_string(w.magnitude));
    }
  }
}

FaultPlan demo_plan(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.add(FaultKind::kStalePhy, 0.25)
      .add(FaultKind::kTruncateFeatures, 0.2, 300.0, 600.0, 0.5)
      .add(FaultKind::kGarbagePhy, 0.3, 600.0, 900.0)
      .add(FaultKind::kDropAck, 0.5, 1000.0, 1400.0)
      .add(FaultKind::kDuplicateAck, 0.1, 1000.0, 1400.0)
      .add(FaultKind::kClassifierOutage, 1.0, 1500.0, 1800.0)
      .add(FaultKind::kBeamTrainingFailure, 0.5)
      .add(FaultKind::kClockSkew, 1.0, 0.0, kForever, 0.02);
  return p;
}

FaultInjector::FaultInjector(const FaultPlan* plan, util::Rng stream)
    : plan_(plan), stream_(stream) {}

FaultInjector::Verdict FaultInjector::query(FaultKind kind, double t_ms) {
  if (plan_ == nullptr) return {};
  for (const FaultWindow& w : plan_->windows) {
    if (w.kind != kind || t_ms < w.start_ms || t_ms >= w.end_ms) continue;
    if (w.probability >= 1.0 || stream_.bernoulli(w.probability)) {
      FaultMetrics& m = fault_metrics();
      m.injected.inc();
      m.by_kind[static_cast<std::size_t>(kind)]->inc();
      return {true, w.magnitude};
    }
  }
  return {};
}

void corrupt_observation(phy::PhyObservation& obs) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // edit_pdp materializes first: a pending PDP would later materialize
  // clean.
  obs.edit_pdp([&](std::vector<double>& pdp) {
    std::fill(pdp.begin(), pdp.end(), kNan);
  });
  std::fill(obs.csi.begin(), obs.csi.end(), kNan);
  obs.snr_db = kNan;
  obs.noise_dbm = std::numeric_limits<double>::infinity();
  obs.tof_ns = std::nullopt;
  obs.cdr = kNan;
  obs.throughput_mbps = kNan;
}

void truncate_observation(phy::PhyObservation& obs, double keep_fraction) {
  const double f = std::clamp(keep_fraction, 0.0, 1.0);
  const auto keep = [f](std::vector<double>& v) {
    if (v.empty()) return;
    const auto n = static_cast<std::size_t>(
        std::ceil(f * static_cast<double>(v.size())));
    v.resize(std::max<std::size_t>(n, 1));
  };
  obs.edit_pdp(keep);  // materializes first
  keep(obs.csi);
}

}  // namespace libra::faults
