#include "util/rng.h"

#include <numbers>

namespace libra::util {

namespace {
constexpr std::size_t kShiftWords = 156;  // the recurrence's middle offset
constexpr std::uint64_t kTwistMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~0ULL << 31;  // the top 33 bits
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One step of the recurrence: the upper bits of `hi` joined to the lower
// bits of `lo`, shifted, and xored with the matrix when its low bit is set.
// 0 - (y & 1) is all ones or all zeros, so no branch depends on the data.
inline std::uint64_t twisted(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return (y >> 1) ^ (kTwistMatrix & (0 - (y & 1)));
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : pos_(kStateWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = kShiftWords;
  for (std::size_t k = 0; k < n - m; ++k) {
    state_[k] = state_[k + m] ^ twisted(state_[k], state_[k + 1]);
  }
  for (std::size_t k = n - m; k < n - 1; ++k) {
    state_[k] = state_[k - (n - m)] ^ twisted(state_[k], state_[k + 1]);
  }
  state_[n - 1] = state_[m - 1] ^ twisted(state_[n - 1], state_[0]);
  pos_ = 0;
}

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
