// Seeded random number generation for reproducible simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that experiments are bit-reproducible across runs. Sub-streams can
// be forked deterministically so that adding randomness to one module does
// not perturb another (counter-based fork seeding).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace libra::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Deterministically derive an independent sub-stream. Successive calls
  // yield distinct streams; the parent stream is not advanced.
  Rng fork() { return Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * ++fork_count_)); }

  std::uint64_t seed() const { return seed_; }

  // uniform, bernoulli and exponential are libstdc++'s
  // std::uniform_real_distribution, std::bernoulli_distribution and
  // std::exponential_distribution, bit for bit: the same formulas over the
  // same canonical() draw.
  double uniform(double lo, double hi) {
    return canonical() * (hi - lo) + lo;
  }
  // One draw of libstdc++'s std::normal_distribution<double>(mean, stddev)
  // from a fresh distribution, bit for bit: the Marsaglia polar method over
  // the same canonical uniforms, returning the y variate (the x variate the
  // distribution would cache dies with it).
  double gaussian(double mean, double stddev) {
    double x, y, r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    const double ret = y * mult;
    return ret * stddev + mean;
  }
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return canonical() < p; }
  // Exponentially distributed with the given mean (> 0). The division by
  // the rate, not a multiplication by the mean: the two round differently.
  double exponential(double mean) {
    return -std::log(1.0 - canonical()) / (1.0 / mean);
  }

  // One raw 64-bit word of the engine, e.g. to key a counter-based
  // substream (fill_standard_normals).
  std::uint64_t word() { return engine_(); }

  // A uniform double in [0, 1): std::generate_canonical<double, 53> on
  // this 64-bit engine, bit for bit.
  double canonical() { return canonical_from(engine_()); }
  // libstdc++ converts the 64-bit word as an unsigned integer, which
  // compiles to a branch on its (random) top bit. Converting the two
  // 32-bit halves is branch-free: both are exact and the sum rounds once,
  // to the same double. A word at or above 2^64 - 2^10 rounds to 1.0,
  // which generate_canonical replaces with the largest double below 1.
  static double canonical_from(std::uint64_t word) {
    const double hi =
        static_cast<double>(static_cast<std::int64_t>(word >> 32));
    const double lo =
        static_cast<double>(static_cast<std::int64_t>(word & 0xffffffffULL));
    const double c = (hi * 0x1p32 + lo) * 0x1p-64;
    return c < 1.0 ? c : std::nextafter(1.0, 0.0);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t fork_count_ = 0;
};

// splitmix64 (Steele, Lea and Flood 2014; Vigna's constants), stateless:
// the output mix of x + γ. The splitmix64 sequence seeded with s is
// splitmix64(s), splitmix64(s + γ), splitmix64(s + 2γ), ...
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Fill `out` with standard normals that are a pure function of (key, i):
// no engine state, so a caller can draw one word to key a block of normals
// and compute them later, or never. Word j is the j-th output of the
// splitmix64 sequence seeded with `key`, i.e. splitmix64(key + j * γ);
// words 2k and 2k + 1 give normals 2k (cosine) and 2k + 1 (sine) by
// Box–Muller, with 1 - canonical_from(word) as the radius uniform so the log
// never sees 0.
void fill_standard_normals(std::uint64_t key, std::span<double> out);

}  // namespace libra::util
