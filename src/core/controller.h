// Live link-adaptation controllers: Algorithm 1 executed against a live
// channel, frame by frame -- the form a chipset vendor would actually ship,
// as opposed to the trace-replay evaluation of Sec. 8.
//
// A controller owns the Tx-side adaptation state of one link: the current
// beam pair and MCS, the observation-window metric tracker, and the upward
// probing machinery. Each frame runs through a three-phase pipeline:
//
//   observe()  transmit one aggregated frame, observe the PHY feedback that
//              would ride back on the Block ACK (Sec. 7, issue 3:
//              Tx-initiated, metrics via ACKs + channel reciprocity), and
//              emit a DecisionRequest describing what the policy must rule
//              on -- or that no decision is due (RA walk in progress).
//   decide     not a controller method: sim::run_fleet's decide phase
//              (sim/fleet.h) resolves every link's request, serving the
//              ones that need inference through one
//              LibraClassifier::classify_batch() call per classifier.
//   apply()    act on the verdict: run BA, enter the RA walk, or let the
//              upward prober spend the frame.
//
// A single link runs the same loop as a one-link fleet (sim::run_session).
//
//   LibraController    - Algorithm 1: 3-class classifier every other frame,
//                        missing-ACK rule otherwise.
//   RaFirstController  - COTS heuristic: RA on missing ACK, BA only when
//                        MCS 0 fails.
//   BaFirstController  - the patent heuristic [14]: BA first on missing
//                        ACK, then RA.
#pragma once

#include <memory>
#include <optional>

#include "core/classifier.h"
#include "core/decision_backend.h"
#include "core/rate_adaptation.h"
#include "faults/faults.h"
#include "mac/ack.h"
#include "mac/beam_training.h"
#include "phy/sampler.h"
#include "trace/features.h"

namespace libra::core {

// Algorithm 1's fixed parameters (Sec. 7) and the live link's timing: one
// aggregated frame per step, the sweep overhead charged per BA, and LiBRA
// deciding every other frame.
inline constexpr double kFatMs = 10.0;
inline constexpr double kBaOverheadMs = 5.0;
inline constexpr int kDecisionPeriodFrames = 2;
// Adaptation fires on *persistent* Block-ACK loss, tracked as an EWMA of the
// per-frame loss indicator: isolated misses (one interference burst, one
// deep fade) are retried, a dead link crosses the threshold within a
// handful of frames. With weight 0.3, a full outage crosses 0.9 after ~7
// frames while a 50%-duty jammer saturates at 0.5 and never triggers.
inline constexpr double kAckLossEwmaWeight = 0.3;
inline constexpr double kAckLossTrigger = 0.9;
// Hysteresis: after an adaptation, classifier decisions are suppressed for
// this many frames (persistent ACK loss still reacts). Prevents
// observation-window noise from re-triggering on the state the link just
// settled into.
inline constexpr int kPostAdaptHoldoffFrames = 10;
static_assert(kFatMs > 0.0 && kBaOverheadMs >= 0.0);
static_assert(kDecisionPeriodFrames >= 1 && kPostAdaptHoldoffFrames >= 0);
// A zero weight freezes the EWMA at 0 and a zero trigger fires on every
// frame: either one would disable the persistent-ACK-loss rule.
static_assert(kAckLossEwmaWeight > 0.0 && kAckLossEwmaWeight <= 1.0);
static_assert(kAckLossTrigger > 0.0 && kAckLossTrigger <= 1.0);

// What one transmitted frame produced.
struct FrameReport {
  double t_ms = 0.0;               // start of this frame
  double duration_ms = 0.0;        // kFatMs (clock skew aside)
  array::BeamId tx_beam = 0;
  array::BeamId rx_beam = 0;
  phy::McsIndex mcs = 0;
  double goodput_mbps = 0.0;       // MAC throughput achieved this frame
  bool ack = true;
  trace::Action action = trace::Action::kNA;  // adaptation fired this frame
};

// Everything observe() learned this frame and the decide phase needs to rule
// on it. Exactly one of three shapes:
//   - decision_due == false: the RA walk consumed the frame, no policy runs;
//   - classifier != nullptr: the verdict requires classifier inference over
//     `features` (the batching boundary -- a fleet funnels all rows sharing
//     one classifier through a single classify_batch call);
//   - otherwise: `precomputed` already is the verdict (heuristic triggers,
//     the missing-ACK rule, holdoff and off-period frames).
struct DecisionRequest {
  FrameReport report;        // the frame observe() transmitted
  phy::PhyObservation obs;   // window-averaged observation at the frame MCS
  bool decision_due = false;
  const LibraClassifier* classifier = nullptr;  // non-owning
  trace::FeatureVector features{};
  trace::Action precomputed = trace::Action::kNA;
  // Degradation ladder rung 3 (hold-last-safe-MCS): the PHY observation is
  // unusable (non-finite), so the verdict is kNA and apply() must not feed
  // the garbage into the upward prober.
  bool hold_last_mcs = false;
  // Degradation ladder rung 2, resolved at plan time: the verdict to
  // substitute when the decision backend fails at decide time (remote
  // timeout, disconnect, malformed reply -> BackendOutageError). It is the
  // same missing-ACK rule a plan-time outage precomputes, frozen here
  // because the rule reads controller state (the ACK-loss EWMA) that the
  // decide phase -- possibly on another thread -- must not touch.
  trace::Action outage_fallback = trace::Action::kNA;

  bool needs_inference() const { return decision_due && classifier != nullptr; }
  // The verdict when no inference is needed: the precomputed one on a
  // decision-due frame, kNA on an RA-walk frame.
  trace::Action resolved_without_inference() const {
    return decision_due ? precomputed : trace::Action::kNA;
  }
};

// Shared mechanics: beam state, per-frame transmission, the live downward
// RA walk and the upward prober. Subclasses implement the trigger policy
// through plan() (and optionally note_verdict()).
class LinkController {
 public:
  // Throws std::invalid_argument on a null link or error model.
  LinkController(channel::Link* link, const phy::ErrorModel* error_model);
  virtual ~LinkController() = default;

  // Initial association: full beam training + best working MCS.
  void start(util::Rng& rng);

  // Phase 1: transmit one frame, advance time, produce the request.
  DecisionRequest observe(util::Rng& rng);
  // Phase 3: act on the verdict and stamp it into the request's report.
  void apply(trace::Action verdict, DecisionRequest& request, util::Rng& rng);

  // Attach a deterministic fault source (faults/faults.h) to the
  // observe/plan/apply seams, or detach with nullptr. Non-owning; with no
  // injector (or an inert one) every code path is bit-identical to an
  // un-faulted controller.
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }
  // Attach the backend the fleet's decide phase serves this link's rows
  // through (FleetConfig::backend) with its per-tick health, or detach
  // with nullptr, so the plan seam can check the transport before
  // committing to a request. Non-owning; sim::run_fleet is the only caller.
  void set_decision_backend(const AttachedBackend* backend) {
    backend_ = backend;
  }

  double time_ms() const { return t_ms_; }
  array::BeamId tx_beam() const { return tx_beam_; }
  array::BeamId rx_beam() const { return rx_beam_; }
  phy::McsIndex mcs() const { return mcs_; }

 protected:
  // Steady state, once the frame is observed: mark the decision due, hold
  // the last safe MCS on an unusable observation, or plan().
  void plan_frame(DecisionRequest& request);
  // Fill the request on a steady-state frame: either set `precomputed` or
  // point `classifier` + `features` at the inference to run. Called once
  // per decision-due frame, so per-frame counters live here.
  virtual void plan(DecisionRequest& request) = 0;
  // Bookkeeping once the verdict is known, before the mechanics run (e.g.
  // LiBRA arms its post-adaptation holdoff here).
  virtual void note_verdict(trace::Action verdict,
                            const DecisionRequest& request);

  // Run beam adaptation now: exhaustive sweep, charge the overhead.
  void run_ba(util::Rng& rng);
  // Enter the downward RA walk starting at the current MCS.
  void begin_ra_walk();

  // Degradation ladder rung 2 trigger: the classifier is unavailable this
  // frame (an injected outage/timeout window).
  bool classifier_faulted(double t_ms);
  // The rung-2 verdict itself: the COTS missing-ACK heuristic (trigger RA
  // when ACKs are persistently missing or the MCS stopped working) -- the
  // rule RaFirstController runs all the time, which is what a LiBRA AP
  // degrades to when inference is unavailable.
  trace::Action missing_ack_fallback_action(
      const phy::PhyObservation& obs) const;
  void plan_missing_ack_fallback(DecisionRequest& request) const;
  // Snapshot the current observation as the reference "initial state" the
  // feature deltas are computed against. start() and the RA walk's end pass
  // a deferred observation: most baselines are replaced before any decision
  // frame reads them.
  void rebaseline(phy::PhyObservation obs);
  // Materializes a deferred baseline on first use, and aligns the PDP
  // similarity at both observations' stored strongest taps
  // (PhyObservation::peak_tap). Throws std::logic_error when `obs` itself
  // is still deferred (phy::PhyObservation::materialize() not called).
  trace::FeatureVector features_against_baseline(
      const phy::PhyObservation& obs) const;

  channel::Link* link_;                 // non-owning
  const phy::ErrorModel* error_model_;  // non-owning
  phy::PhySampler sampler_;
  mac::AckModel ack_model_;
  mac::BeamTrainer trainer_;

  array::BeamId tx_beam_ = 0;
  array::BeamId rx_beam_ = 0;
  phy::McsIndex mcs_ = 0;
  double t_ms_ = 0.0;

  // RA repair walk state (active while walking down).
  bool walking_ = false;
  trace::RaDescent walk_;
  bool walked_through_ba_ = false;  // second walk after a fallback BA

  UpProber up_prober_;
  // Mutable so the const feature read can materialize a lazy baseline.
  mutable std::optional<phy::PhyObservation> baseline_;
  double ack_loss_ewma_ = 0.0;

  faults::FaultInjector* faults_ = nullptr;  // non-owning; nullptr = clean
  const AttachedBackend* backend_ = nullptr;  // non-owning; nullptr = none
  // Last clean observation, replayed by kStalePhy faults.
  std::optional<phy::PhyObservation> last_clean_obs_;

  bool persistent_ack_loss() const {
    return ack_loss_ewma_ >= kAckLossTrigger;
  }
};

class LibraController : public LinkController {
 public:
  LibraController(channel::Link* link, const phy::ErrorModel* error_model,
                  const LibraClassifier* classifier);

 protected:
  void plan(DecisionRequest& request) override;
  void note_verdict(trace::Action verdict,
                    const DecisionRequest& request) override;

 private:
  // Degradation ladder rung 2, transport flavor: true when the attached
  // decision backend is *remote* and cannot answer this frame -- an
  // injected kRpcDrop, a kRpcDelay at/past the backend's deadline, or a
  // failed health probe this tick (daemon down, reconnect pending).
  // Always false with no backend or an in-process one. Queries the fault
  // stream in a fixed order (drop, then delay) so faulted runs replay
  // bit-for-bit.
  bool backend_unreachable(double t_ms);

  const LibraClassifier* classifier_;  // non-owning
  int frames_since_decision_ = 0;
  int holdoff_frames_ = 0;
};

class RaFirstController : public LinkController {
 public:
  using LinkController::LinkController;

 protected:
  void plan(DecisionRequest& request) override;
};

class BaFirstController : public LinkController {
 public:
  using LinkController::LinkController;

 protected:
  void plan(DecisionRequest& request) override;
};

}  // namespace libra::core
