#include "util/rng.h"

#include <numbers>

namespace libra::util {

void fill_standard_normals(std::uint64_t key, std::span<double> out) {
  const std::size_t n = out.size();
  std::uint64_t state = key;
  for (std::size_t i = 0; i < n; i += 2) {
    const std::uint64_t w_radius = splitmix64(state);
    const std::uint64_t w_angle = splitmix64(state + kSplitmix64Gamma);
    state += 2 * kSplitmix64Gamma;
    const double radius =
        std::sqrt(-2.0 * std::log(1.0 - Rng::canonical_from(w_radius)));
    const double angle =
        2.0 * std::numbers::pi * Rng::canonical_from(w_angle);
    out[i] = radius * std::cos(angle);
    if (i + 1 < n) out[i + 1] = radius * std::sin(angle);
  }
}

}  // namespace libra::util
