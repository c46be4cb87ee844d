#include "sim/session.h"

#include <algorithm>
#include <stdexcept>

#include "trace/ground_truth.h"

namespace libra::sim {

Trajectory::Trajectory(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  if (!std::is_sorted(waypoints_.begin(), waypoints_.end(),
                      [](const Waypoint& a, const Waypoint& b) {
                        return a.t_ms < b.t_ms;
                      })) {
    throw std::invalid_argument("trajectory waypoints must be time-sorted");
  }
}

Trajectory::Waypoint Trajectory::at(double t_ms) const {
  if (waypoints_.empty()) return {};
  if (t_ms <= waypoints_.front().t_ms) return waypoints_.front();
  if (t_ms >= waypoints_.back().t_ms) return waypoints_.back();
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (t_ms > waypoints_[i].t_ms) continue;
    const Waypoint& a = waypoints_[i - 1];
    const Waypoint& b = waypoints_[i];
    const double span = b.t_ms - a.t_ms;
    const double frac = span > 0 ? (t_ms - a.t_ms) / span : 1.0;
    Waypoint w;
    w.t_ms = t_ms;
    w.position = a.position + (b.position - a.position) * frac;
    w.boresight_deg =
        a.boresight_deg +
        geom::wrap_angle_deg(b.boresight_deg - a.boresight_deg) * frac;
    return w;
  }
  return waypoints_.back();
}

Trajectory Trajectory::stationary(geom::Vec2 position, double boresight_deg) {
  return Trajectory({{0.0, position, boresight_deg}});
}

Trajectory Trajectory::walk(geom::Vec2 from, geom::Vec2 to,
                            double duration_ms,
                            std::optional<geom::Vec2> facing) {
  const double f0 = facing ? (*facing - from).angle_deg()
                           : (to - from).angle_deg();
  const double f1 = facing ? (*facing - to).angle_deg()
                           : (to - from).angle_deg();
  return Trajectory({{0.0, from, f0}, {duration_ms, to, f1}});
}

SessionDriver::SessionDriver(env::Environment& environment,
                             channel::Link& link,
                             core::LinkController& controller,
                             const SessionScript& script, bool keep_frame_log)
    : environment_(&environment),
      link_(&link),
      controller_(&controller),
      script_(script),
      keep_frame_log_(keep_frame_log),
      fading_(script.fading, script.fading_seed) {
  if (!(script_.duration_ms > 0.0)) {
    throw std::invalid_argument(
        "SessionScript: duration_ms must be > 0, got " +
        std::to_string(script_.duration_ms));
  }
}

void SessionDriver::apply_dynamics(double t_ms) {
  bool moved = false;
  if (!script_.rx_trajectory.empty()) {
    const Trajectory::Waypoint pose = script_.rx_trajectory.at(t_ms);
    if (geom::distance(link_->rx().position(), pose.position) > 1e-6 ||
        std::abs(geom::wrap_angle_deg(link_->rx().boresight_deg() -
                                      pose.boresight_deg)) > 1e-6) {
      link_->rx().set_position(pose.position);
      link_->rx().set_boresight_deg(pose.boresight_deg);
      moved = true;
    }
  }
  // set_blockers() leaves the blocker generation (and so the link's
  // channel memo) alone while the active episodes stay the same.
  active_blockers_.clear();
  for (const BlockageEpisode& ep : script_.blockage) {
    if (t_ms >= ep.start_ms && t_ms < ep.end_ms) {
      active_blockers_.push_back(ep.blocker);
    }
  }
  environment_->set_blockers(active_blockers_);
  int active = kNoInterference;
  for (std::size_t i = 0; i < script_.interference.size(); ++i) {
    const InterferenceEpisode& ep = script_.interference[i];
    if (t_ms >= ep.start_ms && t_ms < ep.end_ms) {
      active = static_cast<int>(i);
      break;
    }
  }
  // Setting the interferer re-traces its paths, so do it only when the
  // active episode changes; refresh() re-traces them when the Rx moves.
  if (active != active_interference_) {
    std::optional<channel::Interferer> interferer;
    if (active != kNoInterference) {
      interferer =
          script_.interference[static_cast<std::size_t>(active)].interferer;
    }
    link_->set_interferer(interferer);
    active_interference_ = active;
  }
  if (moved) link_->refresh();
}

void SessionDriver::start(util::Rng& rng) {
  apply_dynamics(0.0);
  controller_->start(rng);
  last_t_ms_ = controller_->time_ms();
}

core::DecisionRequest SessionDriver::observe(util::Rng& rng) {
  apply_dynamics(controller_->time_ms());
  if (script_.fading.sigma_db > 0.0) {
    link_->set_fade_db(fading_.advance(controller_->time_ms() - last_t_ms_));
    last_t_ms_ = controller_->time_ms();
  }
  return controller_->observe(rng);
}

void SessionDriver::apply(trace::Action verdict,
                          core::DecisionRequest& request, util::Rng& rng) {
  controller_->apply(verdict, request, rng);
  const core::FrameReport& report = request.report;
  ++result_.frames;
  goodput_sum_ += report.goodput_mbps;
  result_.bytes_mb += report.goodput_mbps * report.duration_ms / 8000.0;
  if (report.action == trace::Action::kBA) ++result_.adaptations_ba;
  if (report.action == trace::Action::kRA) ++result_.adaptations_ra;

  constexpr int kOutageFrames = 3;
  // The working-MCS rule's throughput arm: an ACKed frame's goodput.
  const bool frame_ok = report.goodput_mbps > trace::kWorkingMinTputMbps;
  if (!frame_ok) {
    if (dead_frames_ == 0) outage_start_ = report.t_ms;
    ++dead_frames_;
    if (dead_frames_ == kOutageFrames) {
      in_outage_ = true;
      ++result_.outages;
    }
  } else {
    if (in_outage_) {
      in_outage_ = false;
      result_.total_outage_ms += report.t_ms - outage_start_;
    }
    dead_frames_ = 0;
  }
  if (keep_frame_log_) result_.frame_log.push_back(report);
}

SessionResult SessionDriver::finish() {
  if (in_outage_) {
    in_outage_ = false;
    result_.total_outage_ms += controller_->time_ms() - outage_start_;
  }
  result_.avg_goodput_mbps =
      result_.frames > 0 ? goodput_sum_ / result_.frames : 0.0;
  return std::move(result_);
}

}  // namespace libra::sim
