// Live link sessions: scripted channel dynamics (mobility trajectories,
// blockage episodes, interference bursts) driven against a live controller.
//
// This complements the trace-replay evaluation of Sec. 8: instead of
// replaying collected (initial, impaired) state pairs, a Session evolves the
// channel continuously and lets a LinkController (Algorithm 1 or a
// heuristic) adapt in closed loop -- the deployment scenario the paper's
// framework targets. A session is a one-link fleet: run_session() and
// sim::run_fleet() (sim/fleet.h) share one observe -> decide -> apply loop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "channel/fading.h"
#include "core/controller.h"
#include "env/environment.h"

namespace libra::sim {

// Piecewise-linear position + orientation trajectory.
class Trajectory {
 public:
  struct Waypoint {
    double t_ms = 0.0;
    geom::Vec2 position;
    double boresight_deg = 0.0;
  };

  Trajectory() = default;
  explicit Trajectory(std::vector<Waypoint> waypoints);

  // Pose at time t (clamped to the first/last waypoint).
  Waypoint at(double t_ms) const;

  bool empty() const { return waypoints_.empty(); }
  double duration_ms() const {
    return waypoints_.empty() ? 0.0 : waypoints_.back().t_ms;
  }

  // Convenience builders.
  static Trajectory stationary(geom::Vec2 position, double boresight_deg);
  // Straight walk from a to b over [0, duration], facing `facing` the whole
  // time (or the walking direction when nullopt).
  static Trajectory walk(geom::Vec2 from, geom::Vec2 to, double duration_ms,
                         std::optional<geom::Vec2> facing = std::nullopt);

 private:
  std::vector<Waypoint> waypoints_;  // sorted by t_ms
};

// A blocker that exists during [start, end).
struct BlockageEpisode {
  double start_ms = 0.0;
  double end_ms = 0.0;
  env::Blocker blocker;
};

// An interferer active during [start, end).
struct InterferenceEpisode {
  double start_ms = 0.0;
  double end_ms = 0.0;
  channel::Interferer interferer;
};

struct SessionScript {
  Trajectory rx_trajectory;
  std::vector<BlockageEpisode> blockage;
  std::vector<InterferenceEpisode> interference;
  double duration_ms = 10000.0;
  // Temporal shadowing applied on top of the ray-traced channel; sigma 0
  // disables it.
  channel::FadingConfig fading{0.0, 200.0};
  std::uint64_t fading_seed = 99;
};

struct SessionResult {
  double bytes_mb = 0.0;
  double avg_goodput_mbps = 0.0;
  // Counters are 64-bit: fleet-scale aggregation (10^5-10^6 links, see
  // sim/fleet.h) sums these across links, and int32 totals overflow within
  // minutes at that scale.
  std::int64_t frames = 0;
  std::int64_t adaptations_ba = 0;
  std::int64_t adaptations_ra = 0;
  // Outage accounting: spans of at least three consecutive frames with
  // goodput below the working threshold (single dead frames are ordinary
  // loss, not outages).
  std::int64_t outages = 0;
  double total_outage_ms = 0.0;
  std::vector<core::FrameReport> frame_log;  // filled when requested
};

// One link's scripted session, advanced tick by tick: scripted dynamics and
// fading before each frame, outage/goodput accounting after. The fleet loop
// behind sim::run_fleet() and run_session() drives one of these per link,
// with its batched decision phase between observe and apply. Mutates the
// environment's blockers and the link's interferer per the episodes and
// moves the Rx along the trajectory. Throws std::invalid_argument on a
// script with duration_ms <= 0.
class SessionDriver {
 public:
  SessionDriver(env::Environment& environment, channel::Link& link,
                core::LinkController& controller, const SessionScript& script,
                bool keep_frame_log = false);

  // Initial association (applies the t = 0 dynamics first).
  void start(util::Rng& rng);
  bool done() const { return controller_->time_ms() >= script_.duration_ms; }

  // Phase 1 of one tick: dynamics + fading, then transmit one frame.
  core::DecisionRequest observe(util::Rng& rng);
  // Phase 3: run the verdict through the controller and account the frame.
  void apply(trace::Action verdict, core::DecisionRequest& request,
             util::Rng& rng);
  // Final accounting; call once after done().
  SessionResult finish();

  core::LinkController& controller() { return *controller_; }

 private:
  void apply_dynamics(double t_ms);

  env::Environment* environment_;       // non-owning
  channel::Link* link_;                 // non-owning
  core::LinkController* controller_;    // non-owning
  SessionScript script_;
  bool keep_frame_log_;
  channel::FadingProcess fading_;
  SessionResult result_;
  double goodput_sum_ = 0.0;
  bool in_outage_ = false;
  int dead_frames_ = 0;
  double outage_start_ = 0.0;
  double last_t_ms_ = 0.0;
  std::vector<env::Blocker> active_blockers_;  // apply_dynamics() scratch
  // Index into script_.interference of the episode whose interferer the
  // link carries, or kNoInterference. Starts at kUnsetInterference so the
  // first apply_dynamics() sets the link whatever it carried before.
  static constexpr int kNoInterference = -1;
  static constexpr int kUnsetInterference = -2;
  int active_interference_ = kUnsetInterference;
};

// Drive a controller through the script as a one-link fleet (defined in
// fleet.cpp): start, observe, the one-row classify_batch jitter and apply
// all draw from the caller's `rng`, in that order, so the result equals
// link i of a run_fleet whose i-th forked stream is `rng`. The run feeds the
// fleet.* telemetry series like any fleet run; FleetConfig's faults,
// backend override, trainer and scrape tier are run_fleet-only.
SessionResult run_session(env::Environment& environment, channel::Link& link,
                          core::LinkController& controller,
                          const SessionScript& script, util::Rng& rng,
                          bool keep_frame_log = false);

}  // namespace libra::sim
