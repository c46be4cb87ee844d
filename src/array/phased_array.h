// A phased antenna array placed in the world: position + boresight
// orientation + codebook. Converts world-frame departure/arrival angles into
// array-frame angles and looks up beam gains.
#pragma once

#include "array/codebook.h"
#include "geom/geometry.h"

namespace libra::array {

class PhasedArray {
 public:
  PhasedArray(geom::Vec2 position, double boresight_deg,
              const Codebook* codebook);

  geom::Vec2 position() const { return position_; }
  double boresight_deg() const { return boresight_deg_; }
  const Codebook& codebook() const { return *codebook_; }

  void set_position(geom::Vec2 p) { position_ = p; }
  void set_boresight_deg(double deg) { boresight_deg_ = deg; }

  // Gain (dBi) of `beam` toward a world-frame direction (degrees): the
  // codebook's gain at array_angle_deg(world_angle_deg).
  double gain_dbi(BeamId beam, double world_angle_deg) const;
  // The array-frame angle of a world-frame direction, in (-180, 180]. A
  // caller that needs many beams' gains toward one direction computes it
  // once.
  double array_angle_deg(double world_angle_deg) const {
    return geom::wrap_angle_deg(world_angle_deg - boresight_deg_);
  }

 private:
  geom::Vec2 position_;
  double boresight_deg_;
  const Codebook* codebook_;  // non-owning; outlives the array
};

}  // namespace libra::array
