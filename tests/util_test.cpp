#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <ios>
#include <limits>
#include <random>
#include <utility>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/fft.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace libra::util {
namespace {

// ---------- Rng ----------

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.uniform(0, 1) == b.uniform(0, 1);
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng a(7);
  Rng fork1 = a.fork();
  const double v1 = fork1.uniform(0, 1);

  Rng b(7);
  Rng fork2 = b.fork();
  const double v2 = fork2.uniform(0, 1);
  EXPECT_DOUBLE_EQ(v1, v2);
}

TEST(Rng, SuccessiveForksDiffer) {
  Rng a(7);
  Rng f1 = a.fork();
  Rng f2 = a.fork();
  EXPECT_NE(f1.uniform(0, 1), f2.uniform(0, 1));
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

// Whether the next 312 words of the two engines agree. MT19937-64's
// tempering is invertible, so 312 consecutive words fix the whole state:
// agreement here means the engines are in the same state.
bool same_next_words(Mt19937_64 engine, std::mt19937_64 reference) {
  for (std::size_t i = 0; i < Mt19937_64::kStateWords; ++i) {
    if (engine() != reference()) return false;
  }
  return true;
}

// gaussian() replays std::normal_distribution<double>(mean, stddev) drawn
// from a fresh distribution -- the stream every stochastic component and
// the golden fleet digest were recorded with -- in value bits and in the
// engine state it leaves. 5 seeds x 5 (mean, stddev) x 40000 = 10^6 draws.
TEST(Rng, GaussianMatchesStdNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.4}, {-3.5, 2.0}, {1e3, 1e-3}, {7.25, 0.08}};
  std::int64_t mismatches = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL, 12345ULL, ~0ULL}) {
    for (const auto& [mean, stddev] : params) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 40000; ++i) {
        const double got = rng.gaussian(mean, stddev);
        const double want =
            std::normal_distribution<double>(mean, stddev)(reference);
        if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want)) {
          ++mismatches;
        }
      }
      EXPECT_TRUE(same_next_words(rng.engine(), reference))
          << "seed " << seed << " mean " << mean << " stddev " << stddev;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

// uniform() and bernoulli() replay libstdc++'s distributions, each drawn
// from a fresh distribution, in value bits and in the engine state they
// leave: ~10^6 draws each over several parameters.
TEST(Rng, UniformBernoulliMatchStdDistributions) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::uint64_t seeds[] = {1ULL, 77ULL, ~0ULL, 2024ULL};
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-3.5, 2.0}, {1e3, 1e3 + 1e-3}, {-1e9, 1e9}};
  const double probabilities[] = {0.0, 1e-3, 0.3, 0.5, 0.999, 1.0};
  std::int64_t mismatches = 0;
  std::int64_t draws = 0;
  for (const std::uint64_t seed : seeds) {
    for (const auto& [lo, hi] : ranges) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 62500; ++i, ++draws) {
        const double want =
            std::uniform_real_distribution<double>(lo, hi)(reference);
        mismatches += bits(rng.uniform(lo, hi)) != bits(want);
      }
      EXPECT_TRUE(same_next_words(rng.engine(), reference))
          << "uniform seed " << seed;
    }
    for (const double p : probabilities) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 41667; ++i, ++draws) {
        mismatches +=
            rng.bernoulli(p) != std::bernoulli_distribution(p)(reference);
      }
      EXPECT_TRUE(same_next_words(rng.engine(), reference))
          << "bernoulli seed " << seed;
    }
  }
  EXPECT_GE(draws, 2000000);
  EXPECT_EQ(mismatches, 0);
}

// uniform_int() and shuffle() go through libstdc++'s
// std::uniform_int_distribution and std::shuffle on the engine, and so draw
// exactly what they draw on std::mt19937_64.
TEST(Rng, UniformIntAndShuffleMatchStdMt19937_64) {
  const std::pair<int, int> ranges[] = {
      {0, 1}, {0, 3}, {-7, 7}, {0, 311}, {0, 1 << 30}, {INT32_MIN, INT32_MAX}};
  std::int64_t mismatches = 0;
  for (const std::uint64_t seed : {0ULL, 3ULL, ~0ULL}) {
    for (const auto& [lo, hi] : ranges) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 50000; ++i) {
        mismatches += rng.uniform_int(lo, hi) !=
                      std::uniform_int_distribution<int>(lo, hi)(reference);
      }
      EXPECT_TRUE(same_next_words(rng.engine(), reference))
          << "uniform_int seed " << seed << " [" << lo << ", " << hi << "]";
    }
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int round = 0; round < 200; ++round) {
      std::vector<int> got(1000), want(1000);
      for (int i = 0; i < 1000; ++i) got[i] = want[i] = i;
      rng.shuffle(got);
      std::shuffle(want.begin(), want.end(), reference);
      mismatches += got != want;
    }
    EXPECT_TRUE(same_next_words(rng.engine(), reference))
        << "shuffle seed " << seed;
  }
  EXPECT_EQ(mismatches, 0);
}

// A 64-bit "engine" that returns one fixed word, so generate_canonical can
// be fed hand-picked inputs.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type word;
  result_type operator()() { return word; }
};

// canonical() equals std::generate_canonical<double, 53> on a 64-bit
// engine for every word class the split conversion must get right.
TEST(Rng, CanonicalMatchesGenerateCanonical) {
  const auto std_canonical = [](std::uint64_t w) {
    FixedWord e{w};
    return std::generate_canonical<double, 53>(e);
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr std::uint64_t kTop = 1ULL << 63;
  constexpr std::uint64_t kMax = ~0ULL;
  const std::vector<std::uint64_t> words = {
      // zero and words below 2^32 (the high half is zero)
      0, 1, 2, 12345, 0x7fffffffULL, 0x80000000ULL, 0xffffffffULL,
      // around 2^32 and 2^53 (where doubles stop being exact)
      1ULL << 32, (1ULL << 32) + 1, (1ULL << 53) - 1, 1ULL << 53,
      (1ULL << 53) + 1, (1ULL << 53) + 3, (1ULL << 54) + 2,
      // top bit set, including exact halfway (ties-to-even) words
      kTop, kTop + 1, kTop + 0x3ff, kTop + 0x400, kTop + 0x401,
      kTop + 0xc00, 0xdeadbeefcafebabeULL, 0xffffffff00000000ULL,
      0xfffffffeffffffffULL,
      // just below the words that round up to 2^64
      kMax - 0xfff, kMax - 0x800, kMax - 0x7ff, kMax - 0x401,
      // at or above 2^64 - 2^10: rounds to 1.0, takes the nextafter path
      kMax - 0x3ff, kMax - 0x3fe, kMax - 1, kMax};
  for (const std::uint64_t w : words) {
    EXPECT_EQ(bits(Rng::canonical_from(w)), bits(std_canonical(w)))
        << std::hex << "word 0x" << w;
    EXPECT_LT(Rng::canonical_from(w), 1.0) << std::hex << "word 0x" << w;
  }
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  EXPECT_EQ(Rng::canonical_from(kMax - 0x3ff), kBelowOne);
  EXPECT_EQ(Rng::canonical_from(kMax), kBelowOne);
  // 2^64 - 2^10 - 1 rounds down to the same double, without nextafter.
  EXPECT_EQ(Rng::canonical_from(kMax - 0x400), kBelowOne);
  // And 10^6 engine words, through canonical() itself.
  Rng rng(99);
  std::mt19937_64 reference(99);
  std::int64_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    mismatches += bits(rng.canonical()) != bits(std_canonical(reference()));
  }
  EXPECT_TRUE(same_next_words(rng.engine(), reference));
  EXPECT_EQ(mismatches, 0);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------- Mt19937_64 ----------

// The engine is std::mt19937_64 word for word: 10^6 words for each of
// several seeds, the extremes 0 and 2^64 - 1 included.
TEST(Mt19937_64, MatchesStdMt19937_64) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL, 5489ULL,
                                   0x9e3779b97f4a7c15ULL, ~0ULL}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    std::int64_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) mismatches += engine() != reference();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
    EXPECT_TRUE(same_next_words(engine, reference)) << "seed " << seed;
  }
}

// Forked streams seed the engine with seed ^ (γ * k) for the k-th fork;
// each is std::mt19937_64 seeded alike, whatever the parent has drawn.
TEST(Mt19937_64, ForkedStreamsMatchStdMt19937_64) {
  for (const std::uint64_t seed : {0ULL, 7ULL, ~0ULL}) {
    Rng parent(seed);
    for (std::uint64_t k = 1; k <= 8; ++k) {
      for (std::uint64_t i = 0; i < 100 * k; ++i) parent.word();
      Rng child = parent.fork();
      const std::uint64_t child_seed = seed ^ (0x9e3779b97f4a7c15ULL * k);
      ASSERT_EQ(child.seed(), child_seed);
      std::mt19937_64 reference(child_seed);
      std::int64_t mismatches = 0;
      for (int i = 0; i < 20000; ++i) {
        mismatches += child.word() != reference();
      }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << " fork " << k;
      EXPECT_TRUE(same_next_words(child.engine(), reference))
          << "seed " << seed << " fork " << k;
    }
  }
}

// Around each of the first ten 312-word refills: the words agree, a copy
// taken at any position continues identically, and == holds exactly when
// it holds between std::mt19937_64s at the same two positions (state and
// position, not the stream, are compared).
TEST(Mt19937_64, PositionsAroundEachRefillMatchStdMt19937_64) {
  constexpr std::size_t n = Mt19937_64::kStateWords;
  std::vector<std::size_t> positions;
  for (std::size_t r = 0; r <= 10; ++r) {
    for (std::size_t d = 0; d <= 4; ++d) {
      if (r * n + d >= 2) positions.push_back(r * n + d - 2);
    }
  }
  const auto advanced = [](auto engine, std::size_t words) {
    for (std::size_t i = 0; i < words; ++i) engine();
    return engine;
  };
  for (const std::uint64_t seed : {0ULL, 42ULL, ~0ULL}) {
    std::vector<Mt19937_64> engines;
    std::vector<std::mt19937_64> references;
    for (const std::size_t p : positions) {
      engines.push_back(advanced(Mt19937_64(seed), p));
      references.push_back(advanced(std::mt19937_64(seed), p));
    }
    for (std::size_t a = 0; a < positions.size(); ++a) {
      for (std::size_t b = 0; b < positions.size(); ++b) {
        EXPECT_EQ(engines[a] == engines[b], references[a] == references[b])
            << "seed " << seed << " positions " << positions[a] << ", "
            << positions[b];
      }
    }
    for (std::size_t a = 0; a < positions.size(); ++a) {
      Mt19937_64 copy = engines[a];
      EXPECT_TRUE(copy == engines[a]);
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t want = references[a]();
        EXPECT_EQ(engines[a](), want)
            << "seed " << seed << " position " << positions[a];
        EXPECT_EQ(copy(), want)
            << "seed " << seed << " position " << positions[a];
      }
    }
  }
}

// The engine is no bigger than std::mt19937_64, and Rng adds only its
// seed and fork counter.
TEST(Mt19937_64, SizeMatchesStdMt19937_64) {
  EXPECT_EQ(sizeof(Mt19937_64), sizeof(std::mt19937_64));
  EXPECT_EQ(sizeof(Rng), sizeof(std::mt19937_64) + 2 * sizeof(std::uint64_t));
}

// ---------- ThreadPool ----------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(50, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitFutureRethrows) {
  ThreadPool pool(2);
  auto future =
      pool.submit([] { throw std::invalid_argument("task failed"); });
  EXPECT_THROW(future.get(), std::invalid_argument);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }  // destructor must run everything already enqueued
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ResolveMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(6), 6);
}

TEST(ThreadPool, FreeHelperRunsInlineWithoutPool) {
  int sum = 0;
  parallel_for(nullptr, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

// ---------- RunningStats ----------

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  // Unbiased sample variance: m2 = 5, n - 1 = 3.
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

// ---------- CliArgs ----------

TEST(CliArgs, NegativeOptionValuesBind) {
  // The historical bug: `--fat -1` treated "-1" as a new flag, leaving
  // --fat empty and "-1" dangling. Numeric-looking tokens must bind.
  const char* argv[] = {"libra", "simulate", "train.ds", "eval.ds",
                        "--fat", "-1", "--offset", "-2.5e3"};
  const CliArgs args = CliArgs::parse(8, argv, /*first=*/2);
  ASSERT_EQ(args.positional.size(), 2u);
  EXPECT_EQ(args.positional[0], "train.ds");
  EXPECT_EQ(args.positional[1], "eval.ds");
  EXPECT_EQ(args.str("fat"), "-1");
  EXPECT_DOUBLE_EQ(args.number("fat", 0.0), -1.0);
  EXPECT_DOUBLE_EQ(args.number("offset", 0.0), -2500.0);
}

TEST(CliArgs, AdjacentFlagsStayFlags) {
  const char* argv[] = {"prog", "--verbose", "--seed", "7", "--dry-run"};
  const CliArgs args = CliArgs::parse(5, argv);
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_TRUE(args.flag("dry-run"));
  EXPECT_EQ(args.str("verbose"), "");  // not given a value
  EXPECT_DOUBLE_EQ(args.number("seed", 0.0), 7.0);
  EXPECT_TRUE(args.positional.empty());
}

TEST(CliArgs, NumberFallsBackWhenAbsentAndThrowsWhenGarbage) {
  const char* argv[] = {"prog", "--name", "trace.json"};
  const CliArgs args = CliArgs::parse(3, argv);
  EXPECT_DOUBLE_EQ(args.number("missing", 4.5), 4.5);
  EXPECT_EQ(args.str("name"), "trace.json");
  EXPECT_THROW(args.number("name", 0.0), std::invalid_argument);

  // strtod accepts these, but no count, seed or port may be non-finite, and
  // an overflowing literal must not escape as std::out_of_range.
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    const char* bad_argv[] = {"prog", "--seed", bad};
    const CliArgs bad_args = CliArgs::parse(3, bad_argv);
    EXPECT_EQ(bad_args.str("seed"), bad);
    EXPECT_THROW(bad_args.number("seed", 1.0), std::invalid_argument) << bad;
  }
}

// integer() range-checks before any cast: a finite number() outside the
// caller's range or with a fraction must not reach static_cast<int>.
TEST(CliArgs, IntegerRejectsNonIntegralAndOutOfRange) {
  const auto parse = [](const char* value) {
    const char* argv[] = {"prog", "--port", value};
    return CliArgs::parse(3, argv);
  };
  EXPECT_EQ(CliArgs::parse(1, nullptr).integer("port", 7, 0, 65535), 7);
  EXPECT_EQ(parse("8080").integer("port", 0, 0, 65535), 8080);
  EXPECT_EQ(parse("1e3").integer("port", 0, 0, 65535), 1000);
  EXPECT_EQ(parse("0").integer("port", 5, 0, 65535), 0);
  EXPECT_EQ(parse("65535").integer("port", 0, 0, 65535), 65535);
  EXPECT_EQ(parse("-3").integer("port", 0, -5, 5), -3);
  for (const char* bad : {"1e300", "-1e300", "2.5", "-1", "65536", "1e19",
                          "9.3e18", "-9.3e18", "nan", "abc"}) {
    EXPECT_THROW(parse(bad).integer("port", 0, 0, 65535),
                 std::invalid_argument)
        << bad;
  }
  // The whole int64 range is reachable; 2^63 is not.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(parse("-9223372036854775808").integer("port", 0, min, max), min);
  EXPECT_THROW(parse("9223372036854775808").integer("port", 0, min, max),
               std::invalid_argument);
}

TEST(CliArgs, RequireKnownRejectsUnrecognizedOptions) {
  const char* argv[] = {"prog", "--sokcet", "/tmp/x", "--port", "9", "in.ds"};
  const CliArgs args = CliArgs::parse(6, argv);
  // The typo'd option must fail loudly, naming itself...
  try {
    args.require_known({"socket", "port"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--sokcet"), std::string::npos);
  }
  // ...and the exact spelling must pass (positionals are never options).
  EXPECT_NO_THROW(args.require_known({"sokcet", "port"}));
  // Multiple unknowns are all reported in one shot.
  try {
    args.require_known({"frames"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--sokcet"), std::string::npos);
    EXPECT_NE(what.find("--port"), std::string::npos);
  }
  // No options at all is trivially fine.
  const char* bare[] = {"prog", "a", "b"};
  EXPECT_NO_THROW(CliArgs::parse(3, bare).require_known({}));
}

TEST(CliArgs, LooksNumeric) {
  EXPECT_TRUE(looks_numeric("-1"));
  EXPECT_TRUE(looks_numeric("3.25"));
  EXPECT_TRUE(looks_numeric("-1.5e3"));
  EXPECT_FALSE(looks_numeric(""));
  EXPECT_FALSE(looks_numeric("-"));
  EXPECT_FALSE(looks_numeric("--flag"));
  EXPECT_FALSE(looks_numeric("1x"));
}

// ---------- EmpiricalCdf ----------

TEST(EmpiricalCdf, Quantile) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.5);
}

TEST(EmpiricalCdf, QuantileClampsInput) {
  EmpiricalCdf cdf({1.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(2.0), 2.0);
}

TEST(EmpiricalCdf, EmptyThrowsOnQuantile) {
  EmpiricalCdf cdf({});
  EXPECT_THROW(cdf.quantile(0.5), std::invalid_argument);
}

TEST(Boxplot, FiveNumberSummary) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxplotSummary b = boxplot(v);
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.median, 5);
  EXPECT_DOUBLE_EQ(b.max, 9);
  EXPECT_DOUBLE_EQ(b.q1, 3);
  EXPECT_DOUBLE_EQ(b.q3, 7);
  EXPECT_DOUBLE_EQ(b.mean, 5);
  EXPECT_EQ(b.n, 9u);
}

TEST(Boxplot, EmptyIsZeroed) {
  const BoxplotSummary b = boxplot({});
  EXPECT_EQ(b.n, 0u);
  EXPECT_EQ(b.median, 0.0);
}

TEST(Percentile, MatchesQuantile) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(median(v), 25);
}

// ---------- Pearson ----------

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(Pearson, ConstantSideYieldsZero) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{5, 5, 5, 5};
  EXPECT_EQ(pearson(a, b), 0.0);
}

TEST(Pearson, MismatchedSizesYieldZero) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 2};
  EXPECT_EQ(pearson(a, b), 0.0);
}

TEST(Pearson, InvariantToAffineTransform) {
  std::vector<double> a{1, 5, 2, 8, 3};
  std::vector<double> b{2, 3, 7, 1, 9};
  const double r1 = pearson(a, b);
  std::vector<double> a2;
  for (double x : a) a2.push_back(3.0 * x + 10.0);
  EXPECT_NEAR(pearson(a2, b), r1, 1e-12);
}

// ---------- FFT ----------

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft(data);
  for (const auto& x : data) {
    EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
  }
}

TEST(Fft, RoundTripInverse) {
  std::vector<std::complex<double>> data;
  for (int i = 0; i < 16; ++i) data.emplace_back(i * 0.5, -i * 0.25);
  const auto original = data;
  fft(data);
  fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, SinglebinSine) {
  const int n = 64;
  std::vector<std::complex<double>> data(n);
  for (int i = 0; i < n; ++i) {
    data[(std::size_t)i] = std::sin(2.0 * std::numbers::pi * 4.0 * i / n);
  }
  fft(data);
  // Energy concentrated in bins 4 and 60.
  EXPECT_NEAR(std::abs(data[4]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[60]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[5]), 0.0, 1e-9);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<std::complex<double>> data(6, 0.0);
  EXPECT_THROW(fft(data), std::invalid_argument);
}

TEST(Fft, ParsevalHolds) {
  std::vector<std::complex<double>> data;
  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    data.emplace_back(rng.gaussian(0, 1), rng.gaussian(0, 1));
  }
  double time_energy = 0.0;
  for (const auto& x : data) time_energy += std::norm(x);
  fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / data.size(), time_energy, 1e-9);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(129), 256u);
}

TEST(Fft, MagnitudeSpectrumPadsAndHalves) {
  std::vector<double> sig(100, 0.0);
  sig[0] = 1.0;
  const auto mag = magnitude_spectrum(sig);
  EXPECT_EQ(mag.size(), 64u);  // next_pow2(100)=128, half = 64
  for (double m : mag) EXPECT_NEAR(m, 1.0, 1e-12);
}

TEST(Fft, MagnitudeSpectrumEmptyInput) {
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

// ---------- Summation schedules ----------
// pearson sums in a 4-lane blocked order and magnitude_spectrum uses a
// written-out butterfly and sqrt(re^2 + im^2). Floating-point addition is
// not associative, so those orders are part of the results, and the golden
// fleet digest and tests/paper_golden/ depend on them. These pins name the
// kernel when an order moves; the literals are exact results of these
// schedules.

// FNV-1a over the bit patterns of every bin.
std::uint64_t bit_hash(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : xs) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SummationSchedule, PearsonAndSpectrumArePinned) {
  const std::vector<std::pair<int, double>> pearson_pins{
      {1, 0x0p+0},
      {3, -0x1.531f482ee864dp-3},
      {4, -0x1.dc2e400c970f6p-1},
      {7, 0x1.3baf28970610dp-2},
      {64, -0x1.cbfc5aa1e4187p-6},
      {129, 0x1.9a372b58dd406p-6},
  };
  Rng rng(8);
  for (const auto& [n, expected] : pearson_pins) {
    std::vector<double> a(static_cast<std::size_t>(n));
    std::vector<double> b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      a[static_cast<std::size_t>(i)] = rng.gaussian(0, 3);
      b[static_cast<std::size_t>(i)] = rng.gaussian(1, 2);
    }
    const double r = pearson(a, b);
    EXPECT_EQ(r, expected) << "n=" << n << " got " << std::hexfloat << r;
  }

  Rng sig_rng(9);
  std::vector<double> sig(300);  // pads to 512
  for (auto& s : sig) s = sig_rng.uniform(-1, 1);
  const std::vector<double> mag = magnitude_spectrum(sig);
  ASSERT_EQ(mag.size(), 256u);
  EXPECT_EQ(mag[0], 0x1.b830e21ab2284p+1);
  EXPECT_EQ(mag[100], 0x1.2a12572163612p+1);
  EXPECT_EQ(mag[255], 0x1.954e99c6a55e6p+3);
  EXPECT_EQ(bit_hash(mag), 0xdf4fd1e8c21e1df4ULL);
}

// fft() caches its twiddle tables per thread and per (size, direction). A
// cached table must give the bits a newly built one gives: two threads run
// sizes 256 -> 64 -> 256 with forward and inverse transforms interleaved,
// and every transform must equal the same transform run as the first call
// on a fresh thread.
TEST(Fft, TwiddleCacheMatchesFreshThread) {
  struct Call {
    std::size_t n;
    bool inverse;
  };
  const std::vector<Call> schedule{{256, false}, {64, false}, {256, true},
                                   {64, true},   {256, false}, {128, true},
                                   {64, false},  {256, true}};
  using Signal = std::vector<std::complex<double>>;
  const auto transform = [](const Call& c) {
    Rng rng(c.n * 2 + (c.inverse ? 1 : 0));
    Signal v(c.n);
    for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    fft(v, c.inverse);
    return v;
  };
  const auto hash = [](const Signal& v) {
    std::vector<double> flat;
    for (const auto& x : v) {
      flat.push_back(x.real());
      flat.push_back(x.imag());
    }
    return bit_hash(flat);
  };
  std::vector<std::uint64_t> fresh;
  for (const Call& c : schedule) {
    std::thread([&] { fresh.push_back(hash(transform(c))); }).join();
  }
  constexpr int kRounds = 3;
  std::vector<std::uint64_t> got[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < schedule.size(); ++i) {
          // The second thread walks the schedule backwards.
          const std::size_t k = w == 0 ? i : schedule.size() - 1 - i;
          got[w].push_back(hash(transform(schedule[k])));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < 2; ++w) {
    ASSERT_EQ(got[w].size(), schedule.size() * kRounds);
    for (std::size_t j = 0; j < got[w].size(); ++j) {
      const std::size_t i = j % schedule.size();
      const std::size_t k = w == 0 ? i : schedule.size() - 1 - i;
      EXPECT_EQ(got[w][j], fresh[k])
          << "thread " << w << " call " << j << " n=" << schedule[k].n
          << (schedule[k].inverse ? " inverse" : " forward");
    }
  }
}

// ---------- Counter-based normals ----------
// fill_standard_normals keys every PDP's tap jitters, so its values are part
// of the golden fleet digest and tests/paper_golden/. The literals are exact
// results of the splitmix64 + Box-Muller schedule.

TEST(StandardNormals, KeyedValuesArePinned) {
  struct Pin {
    std::uint64_t key;
    double first[3];
    std::uint64_t hash256;
  };
  const Pin pins[] = {
      {0x0ULL,
       {-0x1.e247d108691d2p+0, 0x1.baa0a4a1ef336p-1, 0x1.d2241bf902975p-3},
       0x623cecf690873baeULL},
      {0x243f6a8885a308d3ULL,
       {-0x1.176072f3dabf8p-1, -0x1.2c3f3185b55fap-2, 0x1.41b44b8220352p+0},
       0x30c28c7e06a3b175ULL},
  };
  for (const Pin& pin : pins) {
    std::vector<double> z(256);
    fill_standard_normals(pin.key, z);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(z[static_cast<std::size_t>(i)], pin.first[i])
          << "key " << pin.key << " i=" << i << " got " << std::hexfloat
          << z[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(bit_hash(z), pin.hash256)
        << "key " << pin.key << " got 0x" << std::hex << bit_hash(z);
    // A pure function of (key, i): a shorter or odd-length fill is a
    // prefix of the longer one, bit for bit.
    for (const std::size_t n : {0u, 1u, 2u, 7u, 255u}) {
      std::vector<double> prefix(n);
      fill_standard_normals(pin.key, prefix);
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), z.begin(),
                             [](double a, double b) {
                               return std::bit_cast<std::uint64_t>(a) ==
                                      std::bit_cast<std::uint64_t>(b);
                             }))
          << "n=" << n;
    }
  }
}

// 10^6 normals in 256-value blocks keyed by consecutive words of one Rng,
// as consecutive PHY observations key them. The mean and variance bounds
// sit at about five standard errors (1e-3 and 1.4e-3); the
// Kolmogorov-Smirnov distance against N(0, 1) must stay below its 0.1%
// critical value, 1.95 / sqrt(n) = 1.95e-3.
TEST(StandardNormals, MomentsAndKsDistanceMatchStandardNormal) {
  constexpr std::size_t kBlock = 256;
  constexpr std::size_t kBlocks = 3907;  // 1000192 values
  std::vector<double> all;
  all.reserve(kBlock * kBlocks);
  Rng keys(2026);
  std::vector<double> block(kBlock);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    fill_standard_normals(keys.word(), block);
    all.insert(all.end(), block.begin(), block.end());
  }
  RunningStats s;
  for (const double z : all) s.add(z);
  EXPECT_NEAR(s.mean(), 0.0, 0.005);
  EXPECT_NEAR(s.variance(), 1.0, 0.007);

  std::sort(all.begin(), all.end());
  const double n = static_cast<double>(all.size());
  double ks = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-all[i] / std::numbers::sqrt2);
    ks = std::max({ks, cdf - static_cast<double>(i) / n,
                   static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(n));
  EXPECT_TRUE(std::all_of(all.begin(), all.end(),
                          [](double z) { return std::isfinite(z); }));
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, RoundTripAtManySizes) {
  const int n = GetParam();
  std::vector<std::complex<double>> data((std::size_t)n);
  Rng rng(n);
  for (auto& x : data) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = data;
  fft(data);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 512, 2048));

// ---------- Units ----------

TEST(Units, DbLinearRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-12);
  }
}

TEST(Units, DbmAddition) {
  // Two equal powers sum to +3 dB.
  EXPECT_NEAR(dbm_add(0.0, 0.0), 3.0103, 1e-3);
  // A much weaker signal barely contributes.
  EXPECT_NEAR(dbm_add(0.0, -40.0), 0.0, 1e-3);
}

// dbm_to_mw_upper_bound never falls below dbm_to_mw: a dense grid and
// random points over [-3300, +400] dBm, both sides of the float-range
// guards (t = -126 and t = 127), and NaN. Inside the float range it is
// also tight: within the 1 + 1e-5 margin plus 5.3e-6.
TEST(Units, DbmToMwUpperBoundBoundsDbmToMw) {
  std::int64_t below = 0;
  double worst_ratio = 0.0;
  const auto check = [&](double dbm) {
    const double bound = dbm_to_mw_upper_bound(dbm);
    const double mw = dbm_to_mw(dbm);
    if (!(bound >= mw)) {
      if (++below <= 5) ADD_FAILURE() << std::hexfloat << "dbm " << dbm;
    }
    if (mw >= 0x1p-126 && std::isfinite(bound)) {
      worst_ratio = std::max(worst_ratio, bound / mw);
    }
  };
  for (int i = 0; i <= 3700000; ++i) check(-3300.0 + 1e-3 * i);
  std::mt19937_64 gen(5);
  std::uniform_real_distribution<double> dbm(-3300.0, 400.0);
  for (int i = 0; i < 1000000; ++i) check(dbm(gen));
  constexpr double kLog2TenOverTen = 0.33219280948873623;
  for (const double t : {-126.0, 127.0}) {
    double up = t / kLog2TenOverTen;
    double down = up;
    for (int i = 0; i < 4096; ++i) {
      check(up);
      check(down);
      up = std::nextafter(up, 1e9);
      down = std::nextafter(down, -1e9);
    }
    for (const double step : {1e-12, 1e-9, 1e-6, 1e-3, 1.0}) {
      check(t / kLog2TenOverTen + step);
      check(t / kLog2TenOverTen - step);
    }
  }
  EXPECT_EQ(below, 0);
  EXPECT_LE(worst_ratio, 1.0 + 1e-5 + 5.3e-6);
  // The ends: the smallest normal float below, +inf above and for a NaN.
  EXPECT_EQ(dbm_to_mw_upper_bound(-380.0), 0x1p-126);
  EXPECT_EQ(dbm_to_mw_upper_bound(-3300.0), 0x1p-126);
  EXPECT_EQ(dbm_to_mw_upper_bound(-std::numeric_limits<double>::infinity()),
            0x1p-126);
  EXPECT_EQ(dbm_to_mw_upper_bound(383.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(dbm_to_mw_upper_bound(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(dbm_to_mw_upper_bound(std::nan("")),
            std::numeric_limits<double>::infinity());
}

// ---------- Table ----------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.to_csv(), "a,b,c\nonly,,\n");
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

}  // namespace
}  // namespace libra::util
