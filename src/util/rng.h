// Seeded random number generation for reproducible simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that experiments are bit-reproducible across runs. Sub-streams can
// be forked deterministically so that adding randomness to one module does
// not perturb another (counter-based fork seeding).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace libra::util {

// MT19937-64 (Matsumoto and Nishimura), word for word std::mt19937_64:
// the same seeding, the same 312-word state and position, the same twist
// recurrence and tempering. Engines seeded alike yield the same words, and
// operator== compares state and position as std::mt19937_64's does. Only
// the twist is written differently: each word's twist-matrix term is
// masked by its low bit instead of chosen by a branch on it, which a
// processor mispredicts about half the time.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateWords) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  bool operator==(const Mt19937_64&) const = default;

 private:
  // Regenerates all 312 words in place and rewinds the position.
  void twist();

  std::array<result_type, kStateWords> state_;
  std::size_t pos_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Deterministically derive an independent sub-stream. Successive calls
  // yield distinct streams; the parent stream is not advanced.
  Rng fork() { return Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * ++fork_count_)); }

  std::uint64_t seed() const { return seed_; }

  // uniform and bernoulli are libstdc++'s std::uniform_real_distribution
  // and std::bernoulli_distribution, bit for bit: the same formulas over the
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

  // One raw 64-bit word of the engine, e.g. to key a counter-based
  // substream (fill_standard_normals).
  std::uint64_t word() { return engine_(); }

  // A uniform double in [0, 1): libstdc++'s
  // std::generate_canonical<double, 53> on a 64-bit engine, bit for bit.
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

  // The engine itself, for std distributions and raw words. It meets
  // UniformRandomBitGenerator, so std::uniform_int_distribution and
  // std::shuffle draw from it exactly as from std::mt19937_64.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
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
