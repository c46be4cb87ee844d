// Indoor measurement environments (Sec. 4.2, Appendix A.2.1).
//
// Each environment is a plan-view polygon of material walls plus optional
// interior obstacles (cabinets, desks). Environments both reflect paths
// (image-method ray tracing) and block them (LOS obstruction).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace libra::env {

// A human blocker standing on/near a path (Sec. 4.2 "Blockage"): modeled as
// a disc that attenuates any ray passing within its radius. Measured 60 GHz
// human-body losses are 15-30 dB; partial occlusion yields less.
struct Blocker {
  geom::Vec2 position;
  double radius_m = 0.25;
  double attenuation_db = 28.0;
};

class Environment {
 public:
  Environment(std::string name, std::vector<geom::Wall> walls);

  const std::string& name() const { return name_; }
  const std::vector<geom::Wall>& walls() const { return walls_; }

  // Every blocker change takes a new blocker_generation().
  void add_blocker(const Blocker& b);
  void clear_blockers();
  // Replace the blocker list; a new generation only when the list differs
  // (bit for bit, in order) from the current one, so a script that
  // re-asserts the same blockers every frame leaves channel::Link's memo
  // valid.
  void set_blockers(std::span<const Blocker> blockers);
  const std::vector<Blocker>& blockers() const { return blockers_; }
  // Identifies the current blocker list: two environments, or one at two
  // times, with the same generation hold equal lists. Generations are drawn
  // from one process-wide counter, so this holds across copies and
  // assignments too; 0 is the empty list an environment is built with.
  std::uint64_t blocker_generation() const { return blocker_generation_; }

  // Total blockage attenuation (dB) a ray from a to b suffers from the
  // blockers currently present. Grazing incidence (ray passes near the edge
  // of the disc) attenuates proportionally less than a dead-center hit.
  double blockage_loss_db(geom::Vec2 a, geom::Vec2 b) const;

  // Axis-aligned bounding box over all wall endpoints.
  struct BoundingBox {
    geom::Vec2 min;
    geom::Vec2 max;
  };
  BoundingBox bounding_box() const;

  // Clamp a point into the bounding box with the given margin.
  geom::Vec2 clamp_inside(geom::Vec2 p, double margin_m = 0.3) const;

 private:
  std::string name_;
  std::vector<geom::Wall> walls_;
  std::vector<Blocker> blockers_;
  std::uint64_t blocker_generation_ = 0;
};

}  // namespace libra::env
