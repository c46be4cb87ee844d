// Deterministic fault injection for the serving pipeline.
//
// LiBRA's value proposition is graceful behavior when the link misbehaves:
// Algorithm 1 falls back to the missing-ACK rule whenever classifier input
// is unavailable or stale. This layer makes that behavior testable. A
// FaultPlan is a schedule of seeded fault events -- dropped/duplicated
// Block-ACKs, stale or non-finite PHY observations, truncated metric
// vectors, classifier outage windows, beam-training failures, per-link
// clock skew, dropped/delayed classify RPCs against a remote decision
// backend -- injected at the observe/decide/apply seams of
// core::LinkController and sim::run_fleet.
//
// Determinism contract (same discipline as the fleet engine): every fault
// decision for link i is drawn from link i's own fault stream, the (i+1)-th
// fork() of Rng(FaultPlan::seed), queried in frame order. Fault streams are
// disjoint from the link's simulation streams, so:
//   - a faulted run is bit-reproducible from (fleet_seed, fault_seed),
//     for any forest thread count;
//   - an empty FaultPlan leaves every simulation stream untouched and the
//     run bit-identical to an un-faulted one (the hooks are a null-pointer
//     check per frame -- see BM_FleetWithFaults).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "phy/sampler.h"
#include "util/rng.h"

namespace libra::faults {

inline constexpr double kForever = std::numeric_limits<double>::infinity();

enum class FaultKind : int {
  kDropAck = 0,          // the Block-ACK is lost: Tx sees a missed frame
  kDuplicateAck,         // a stale/duplicated BA arrives: Tx sees success
                         // even when the frame died (silent mis-adaptation)
  kStalePhy,             // PHY feedback replays the last clean observation
  kGarbagePhy,           // non-finite SNR/noise/CDR, dead PDP (baseband
                         // desync); trips the hold-last-safe-MCS rung
  kTruncateFeatures,     // PDP/CSI/per-MCS vectors lose their tail
  kClassifierOutage,     // inference unavailable (timeout) this frame;
                         // trips the missing-ACK fallback rung
  kBeamTrainingFailure,  // the sweep runs (overhead charged) but its result
                         // is unusable: the old beam pair is kept
  kClockSkew,            // this link's clock runs fast/slow by `magnitude`
  kRpcDrop,              // the classify RPC (or its reply) is lost at the
                         // transport seam; only fires against a *remote*
                         // decision backend, where it trips the same
                         // missing-ACK fallback rung as kClassifierOutage
  kRpcDelay,             // the classify round trip takes `magnitude` ms; at
                         // or past the remote backend's deadline it counts
                         // as an outage (below it, only telemetry notices)
};
inline constexpr int kNumFaultKinds = 10;

std::string_view to_string(FaultKind kind);

// One schedulable fault: `kind` fires with `probability` per frame while
// the link's clock is inside [start_ms, end_ms).
struct FaultWindow {
  FaultKind kind = FaultKind::kDropAck;
  double probability = 1.0;
  double start_ms = 0.0;
  double end_ms = kForever;
  // Kind-specific knob: kClockSkew = fractional skew (> -1; 0.1 means the
  // clock runs 10% slow, so frames take 10% longer); kTruncateFeatures =
  // fraction of each vector kept, in [0, 1].
  double magnitude = 0.0;
};

struct FaultPlan {
  // All fault randomness derives from this seed and nothing else.
  std::uint64_t seed = 0;
  std::vector<FaultWindow> windows;

  bool empty() const { return windows.empty(); }

  // Append a window; returns *this so plans build fluently.
  FaultPlan& add(FaultKind kind, double probability, double start_ms = 0.0,
                 double end_ms = kForever, double magnitude = 0.0);

  // Throws std::invalid_argument on a probability outside [0, 1], a
  // non-finite or inverted window, a clock skew <= -1, or a truncation
  // fraction outside [0, 1].
  void validate() const;
};

// A representative kitchen-sink plan: a blockage-style ACK-loss burst with
// ghost ACKs, a garbage-PHY window, stale feedback, a mid-run classifier
// outage, flaky beam training and mild clock skew. Used by the `--faults
// SEED` flag of `libra simulate` / examples/fleet_serving and by the golden
// degradation regression run.
FaultPlan demo_plan(std::uint64_t seed);

// Per-link fault source: owns one forked fault stream and answers "does
// `kind` fire at time t?" queries in frame order. Default-constructed
// injectors are inert (active() == false, no draws ever).
class FaultInjector {
 public:
  FaultInjector() = default;
  // `plan` is borrowed and must outlive the injector. `stream` is this
  // link's private fork of Rng(plan.seed).
  FaultInjector(const FaultPlan* plan, util::Rng stream);

  bool active() const { return plan_ != nullptr && !plan_->windows.empty(); }

  struct Verdict {
    bool fired = false;
    double magnitude = 0.0;  // from the window that fired
  };

  // One decision for (kind, t): windows are scanned in plan order; the
  // first window covering t whose Bernoulli draw succeeds wins. A window
  // with probability >= 1 fires without consuming a draw, so all-certain
  // plans (e.g. a 100% outage) never touch the stream. Each fire bumps
  // faults.injected and faults.injected.<kind>.
  Verdict query(FaultKind kind, double t_ms);

 private:
  const FaultPlan* plan_ = nullptr;  // non-owning
  util::Rng stream_{0};
};

// Poison an observation the way a desynchronized baseband would: NaN SNR
// and CDR, +Inf noise, no ToF, dead PDP/CSI taps, NaN throughput.
void corrupt_observation(phy::PhyObservation& obs);

// Keep only the first ceil(keep_fraction * size) taps of the PDP and CSI
// vectors (at least one tap survives when the vector was non-empty).
// Both mutators materialize a deferred observation first, so the fault
// lands on the PDP and CSI it would have had eagerly.
void truncate_observation(phy::PhyObservation& obs, double keep_fraction);

}  // namespace libra::faults
