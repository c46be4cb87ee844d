#include "util/rng.h"

#include <numbers>

namespace libra::util {

namespace {
// splitmix64's output mix (Steele, Lea and Flood 2014; Vigna's constants).
std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // γ, 2^64 / φ
}  // namespace

void fill_standard_normals(std::uint64_t key, std::span<double> out) {
  const std::size_t n = out.size();
  std::uint64_t state = key;
  for (std::size_t i = 0; i < n; i += 2) {
    const std::uint64_t w_radius = splitmix64_mix(state += kGamma);
    const std::uint64_t w_angle = splitmix64_mix(state += kGamma);
    const double radius =
        std::sqrt(-2.0 * std::log(1.0 - Rng::canonical_from(w_radius)));
    const double angle =
        2.0 * std::numbers::pi * Rng::canonical_from(w_angle);
    out[i] = radius * std::cos(angle);
    if (i + 1 < n) out[i + 1] = radius * std::sin(angle);
  }
}

}  // namespace libra::util
