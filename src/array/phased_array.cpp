#include "array/phased_array.h"

#include <stdexcept>

namespace libra::array {

PhasedArray::PhasedArray(geom::Vec2 position, double boresight_deg,
                         const Codebook* codebook)
    : position_(position), boresight_deg_(boresight_deg), codebook_(codebook) {
  if (codebook_ == nullptr) throw std::invalid_argument("null codebook");
}

double PhasedArray::gain_dbi(BeamId beam, double world_angle_deg) const {
  return codebook_->gain_dbi(beam, array_angle_deg(world_angle_deg));
}

}  // namespace libra::array
