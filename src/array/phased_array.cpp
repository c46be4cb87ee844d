#include "array/phased_array.h"

#include <stdexcept>

namespace libra::array {

PhasedArray::PhasedArray(geom::Vec2 position, double boresight_deg,
                         const Codebook* codebook)
    : position_(position), boresight_deg_(boresight_deg), codebook_(codebook) {
  if (codebook_ == nullptr) throw std::invalid_argument("null codebook");
}

void PhasedArray::rotate(double delta_deg) {
  boresight_deg_ = geom::wrap_angle_deg(boresight_deg_ + delta_deg);
}

double PhasedArray::gain_dbi(BeamId beam, double world_angle_deg) const {
  return codebook_->gain_dbi(beam, array_angle_deg(world_angle_deg));
}

double PhasedArray::angle_to(geom::Vec2 target) const {
  return (target - position_).angle_deg();
}

}  // namespace libra::array
