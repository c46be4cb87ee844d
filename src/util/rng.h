// Seeded random number generation for reproducible simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that experiments are bit-reproducible across runs. Sub-streams can
// be forked deterministically so that adding randomness to one module does
// not perturb another (counter-based fork seeding).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace libra::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Deterministically derive an independent sub-stream. Successive calls
  // yield distinct streams; the parent stream is not advanced.
  Rng fork() { return Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * ++fork_count_)); }

  std::uint64_t seed() const { return seed_; }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  // One draw of libstdc++'s std::normal_distribution<double>(mean, stddev)
  // from a fresh distribution, bit for bit: the Marsaglia polar method,
  // returning the y variate (the x variate the distribution would cache
  // dies with it).
  double gaussian(double mean, double stddev) {
    const Polar p = polar();
    const double mult = std::sqrt(-2 * std::log(p.r2) / p.r2);
    const double ret = p.y * mult;
    return ret * stddev + mean;
  }
  // Advance the engine exactly as `n` gaussian() calls would, without
  // computing the variates (same rejection loop, no log/sqrt).
  void skip_gaussians(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) polar();
  }
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  // Exponentially distributed with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  struct Polar {
    double y;
    double r2;
  };
  // The polar method's rejection loop: a point uniform in the unit disc
  // (minus the origin), from the same canonical uniforms
  // std::normal_distribution draws.
  Polar polar() {
    double x, y, r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return {y, r2};
  }
  double canonical() {
    return std::generate_canonical<double,
                                   std::numeric_limits<double>::digits>(
        engine_);
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t fork_count_ = 0;
};

}  // namespace libra::util
