// Decision backends: where a classify batch's forest votes come from.
//
// LibraClassifier owns the decision *policy* -- window-noise jitter,
// non-finite row filtering, arg-max + confidence gating -- but the
// per-class vote fractions themselves can be computed anywhere: by the
// classifier's own compiled forest (no backend attached), by the fleet
// trainer's hot-swappable model slot (SwapBackend, core/trainer.h) or by a
// standalone inference daemon reached over a socket (rpc::RemoteBackend,
// src/rpc/client.h). This seam is what enables the controller/minion
// topology of ROADMAP item 2: jitter is drawn client-side from each link's
// own RNG stream and only finished feature rows cross the boundary, so the
// server is stateless and a loopback round trip is bit-identical to the
// local call (vote fractions are integer tree counts / num_trees -- exact
// in double -- and ship as raw bit patterns).
//
// Failure contract: vote_batch() throws BackendOutageError when the votes
// cannot be computed (remote timeout, disconnect, malformed reply). Callers
// substitute DecisionRequest::outage_fallback -- degradation-ladder rung 2,
// the same missing-ACK rule an injected kClassifierOutage triggers -- so a
// dead daemon degrades the fleet instead of crashing it. available() is the
// cheap plan-time health probe: a controller whose backend is known-dead
// skips the request (and the jitter draws) entirely, which is what makes a
// dead-from-start remote fleet frame-identical to the RA-first heuristic.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/data.h"
#include "obs/metrics.h"

namespace libra::core {

// The decision backend could not answer: remote timeout, disconnect, or a
// malformed reply. Carries no verdicts -- the caller falls back.
class BackendOutageError : public std::runtime_error {
 public:
  explicit BackendOutageError(const std::string& what)
      : std::runtime_error(what) {}
};

// A remote peer's cumulative metrics snapshot, labeled with the origin it
// should appear under in a merged scrape ("daemon", ...).
struct PeerStats {
  std::string origin;
  obs::MetricsSnapshot snapshot;
};

class DecisionBackend {
 public:
  virtual ~DecisionBackend() = default;

  // Backend kind for logs and error messages ("swap", "remote").
  virtual std::string_view name() const = 0;

  // True when votes are computed in-process: transport faults (kRpcDrop /
  // kRpcDelay) and availability probes do not apply.
  virtual bool local() const = 0;

  // Cheap health probe at the controller's plan seam; may attempt a
  // periodic reconnect. Local backends are always available.
  virtual bool available() = 0;

  // Per-request deadline in ms -- an injected kRpcDelay of at least this
  // magnitude counts as an outage. Infinity for local backends.
  virtual double deadline_ms() const = 0;

  // The peer process's metrics snapshot for the fleet aggregator's merged
  // scrape. Local backends have no peer: the default is nullopt, which is
  // also what a remote backend answers during an outage.
  virtual std::optional<PeerStats> peer_stats() { return std::nullopt; }

  // Per-class vote fractions for every row, in row order. Throws
  // BackendOutageError when the backend cannot answer.
  virtual std::vector<std::vector<double>> vote_batch(
      const ml::DataSet& rows) = 0;
};

// Decisions resolved through the rung-2 fallback because the backend was
// unreachable (plan-time probe) or failed mid-batch (decide-time outage).
// Shared by core::LibraController and sim::run_fleet's decide phase.
obs::Counter& outage_fallback_counter();

}  // namespace libra::core
