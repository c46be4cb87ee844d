#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd.h"

#if LIBRA_SIMD_X86
#include <immintrin.h>
#endif

namespace libra::util {

namespace {

// Branchless "count of samples <= x" over the sorted array: a binary
// search whose trip count depends only on n, so every query (and every
// SIMD lane) runs the same comparisons in the same order. The window
// invariant tolerates keeping a few known-greater elements, which is what
// makes the step unconditional: after each probe the window always shrinks
// by half, taken or not. NaN compares false everywhere -> count 0.
inline std::size_t count_le(const double* sorted, std::size_t n, double x) {
  std::size_t lo = 0;
  std::size_t nn = n;
  while (nn > 1) {
    const std::size_t half = nn / 2;
    lo += sorted[lo + half - 1] <= x ? half : 0;
    nn -= half;
  }
  return lo + (sorted[lo] <= x ? 1 : 0);
}

// 4-lane blocked sum: lane j accumulates indices congruent j mod 4, lanes
// combine as (s0+s2)+(s1+s3) — the pairwise reduce an AVX2 register does
// with extract128+add — and the tail is appended after the combine. Both
// the scalar and AVX2 pearson below follow this exact schedule, which is
// the whole parity argument: same additions, same order, no FMA on either
// path (baseline x86-64 and target("avx2") lack the instruction).
inline double blocked_sum(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) {
    acc[0] += x[i];
    acc[1] += x[i + 1];
    acc[2] += x[i + 2];
    acc[3] += x[i + 3];
  }
  double s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (std::size_t i = full; i < n; ++i) s += x[i];
  return s;
}

struct PearsonSums {
  double cov = 0.0, va = 0.0, vb = 0.0;
};

inline PearsonSums pearson_sums_scalar(const double* a, const double* b,
                                       std::size_t n, double ma, double mb) {
  double c[4] = {0.0, 0.0, 0.0, 0.0};
  double sa[4] = {0.0, 0.0, 0.0, 0.0};
  double sb[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double da = a[i + j] - ma;
      const double db = b[i + j] - mb;
      c[j] += da * db;
      sa[j] += da * da;
      sb[j] += db * db;
    }
  }
  PearsonSums s;
  s.cov = (c[0] + c[2]) + (c[1] + c[3]);
  s.va = (sa[0] + sa[2]) + (sa[1] + sa[3]);
  s.vb = (sb[0] + sb[2]) + (sb[1] + sb[3]);
  for (std::size_t i = full; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    s.cov += da * db;
    s.va += da * da;
    s.vb += db * db;
  }
  return s;
}

#if LIBRA_SIMD_X86

#define LIBRA_AVX2_FN __attribute__((target("avx2")))

// GCC expands the maskless gather intrinsics with an undef merge operand
// and flags it -Wmaybe-uninitialized at every inlined call site; the
// all-ones mask overwrites every lane, so nothing uninitialized is read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// (a0+a2)+(a1+a3): the same combine order blocked_sum writes out.
LIBRA_AVX2_FN inline double reduce_blocked(__m256d acc) {
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

LIBRA_AVX2_FN double blocked_sum_avx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double s = reduce_blocked(acc);
  for (std::size_t i = full; i < n; ++i) s += x[i];
  return s;
}

LIBRA_AVX2_FN PearsonSums pearson_sums_avx2(const double* a, const double* b,
                                            std::size_t n, double ma,
                                            double mb) {
  const __m256d vma = _mm256_set1_pd(ma);
  const __m256d vmb = _mm256_set1_pd(mb);
  __m256d c = _mm256_setzero_pd();
  __m256d sa = _mm256_setzero_pd();
  __m256d sb = _mm256_setzero_pd();
  const std::size_t full = n - n % 4;
  for (std::size_t i = 0; i < full; i += 4) {
    const __m256d da = _mm256_sub_pd(_mm256_loadu_pd(a + i), vma);
    const __m256d db = _mm256_sub_pd(_mm256_loadu_pd(b + i), vmb);
    c = _mm256_add_pd(c, _mm256_mul_pd(da, db));
    sa = _mm256_add_pd(sa, _mm256_mul_pd(da, da));
    sb = _mm256_add_pd(sb, _mm256_mul_pd(db, db));
  }
  PearsonSums s;
  s.cov = reduce_blocked(c);
  s.va = reduce_blocked(sa);
  s.vb = reduce_blocked(sb);
  for (std::size_t i = full; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    s.cov += da * db;
    s.va += da * da;
    s.vb += db * db;
  }
  return s;
}

// Lower half of a 4x64 double-compare mask as 4 packed int32 lanes.
LIBRA_AVX2_FN inline __m128i pd_mask_to_epi32(__m256d m) {
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m), pick));
}

// The same fixed-trip binary search as count_le — identical probes,
// identical integer updates, final count / n division — so the result is
// bit-identical to the scalar loop. One 4-query block per gather chain is
// LATENCY-bound (each level's gather waits on the previous level's `lo`),
// which on gather-slow cores loses to the scalar search; walking kChains
// independent blocks through each level together keeps that many gathers
// in flight and hides the chain latency.
LIBRA_AVX2_FN void at_many_avx2(const double* sorted, std::size_t n,
                                const double* xs, double* out,
                                std::size_t m) {
  const __m256d denom = _mm256_set1_pd(static_cast<double>(n));
  constexpr std::size_t kChains = 8;  // 8 blocks x 4 lanes = 32 queries
  std::size_t i = 0;
  for (; i + 4 * kChains <= m; i += 4 * kChains) {
    __m256d x[kChains];
    __m128i lo[kChains];
    for (std::size_t c = 0; c < kChains; ++c) {
      x[c] = _mm256_loadu_pd(xs + i + 4 * c);
      lo[c] = _mm_setzero_si128();
    }
    std::size_t nn = n;
    while (nn > 1) {
      const std::size_t half = nn / 2;
      const __m128i bias = _mm_set1_epi32(static_cast<int>(half) - 1);
      const __m128i step = _mm_set1_epi32(static_cast<int>(half));
      for (std::size_t c = 0; c < kChains; ++c) {
        const __m128i probe = _mm_add_epi32(lo[c], bias);
        const __m256d vals = _mm256_i32gather_pd(sorted, probe, 8);
        const __m128i le =
            pd_mask_to_epi32(_mm256_cmp_pd(vals, x[c], _CMP_LE_OQ));
        lo[c] = _mm_add_epi32(lo[c], _mm_and_si128(le, step));
      }
      nn -= half;
    }
    for (std::size_t c = 0; c < kChains; ++c) {
      const __m256d vals = _mm256_i32gather_pd(sorted, lo[c], 8);
      const __m128i le =
          pd_mask_to_epi32(_mm256_cmp_pd(vals, x[c], _CMP_LE_OQ));
      const __m128i count =
          _mm_add_epi32(lo[c], _mm_and_si128(le, _mm_set1_epi32(1)));
      _mm256_storeu_pd(out + i + 4 * c,
                       _mm256_div_pd(_mm256_cvtepi32_pd(count), denom));
    }
  }
  for (; i + 4 <= m; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    __m128i lo = _mm_setzero_si128();
    std::size_t nn = n;
    while (nn > 1) {
      const std::size_t half = nn / 2;
      const __m128i probe =
          _mm_add_epi32(lo, _mm_set1_epi32(static_cast<int>(half) - 1));
      const __m256d vals = _mm256_i32gather_pd(sorted, probe, 8);
      const __m128i le = pd_mask_to_epi32(_mm256_cmp_pd(vals, x, _CMP_LE_OQ));
      lo = _mm_add_epi32(
          lo, _mm_and_si128(le, _mm_set1_epi32(static_cast<int>(half))));
      nn -= half;
    }
    const __m256d vals = _mm256_i32gather_pd(sorted, lo, 8);
    const __m128i le = pd_mask_to_epi32(_mm256_cmp_pd(vals, x, _CMP_LE_OQ));
    const __m128i count =
        _mm_add_epi32(lo, _mm_and_si128(le, _mm_set1_epi32(1)));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(_mm256_cvtepi32_pd(count), denom));
  }
  for (; i < m; ++i) {
    out[i] = static_cast<double>(count_le(sorted, n, xs[i])) /
             static_cast<double>(n);
  }
}

// Elementwise quantile interpolation, 4 queries per iteration. Clamp,
// truncation, gathers and the lo*(1-frac) + hi*frac combine mirror the
// scalar quantile() operation for operation.
LIBRA_AVX2_FN void quantile_many_avx2(const double* sorted, std::size_t n,
                                      const double* qs, double* out,
                                      std::size_t m) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d scale = _mm256_set1_pd(static_cast<double>(n - 1));
  const __m128i last = _mm_set1_epi32(static_cast<int>(n - 1));
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d q =
        _mm256_min_pd(_mm256_max_pd(_mm256_loadu_pd(qs + i), zero), one);
    const __m256d pos = _mm256_mul_pd(q, scale);
    const __m128i lo = _mm256_cvttpd_epi32(pos);
    const __m128i hi = _mm_min_epi32(_mm_add_epi32(lo, _mm_set1_epi32(1)),
                                     last);
    const __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(lo));
    const __m256d a = _mm256_i32gather_pd(sorted, lo, 8);
    const __m256d b = _mm256_i32gather_pd(sorted, hi, 8);
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(_mm256_mul_pd(a, _mm256_sub_pd(one, frac)),
                                   _mm256_mul_pd(b, frac)));
  }
  for (; i < m; ++i) {
    const double q = std::clamp(qs[i], 0.0, 1.0);
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
}

// int32 gather lanes cap the sample count the vector CDF paths can index.
constexpr std::size_t kMaxGatherElems = std::size_t{1} << 31;

#pragma GCC diagnostic pop

#endif  // LIBRA_SIMD_X86

}  // namespace

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  mean_ += delta * nb / (na + nb);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

void EmpiricalCdf::at_many(std::span<const double> xs,
                           std::span<double> out) const {
  if (xs.size() != out.size()) {
    throw std::invalid_argument("at_many: query/output size mismatch");
  }
  if (sorted_.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const double* sorted = sorted_.data();
  const std::size_t n = sorted_.size();
#if LIBRA_SIMD_X86
  if (simd::active_isa() == simd::Isa::kAvx2 && n < kMaxGatherElems) {
    at_many_avx2(sorted, n, xs.data(), out.data(), xs.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = static_cast<double>(count_le(sorted, n, xs[i])) /
             static_cast<double>(n);
  }
}

double EmpiricalCdf::quantile(double q) const {
  if (sorted_.empty()) throw std::invalid_argument("quantile of empty CDF");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void EmpiricalCdf::quantile_many(std::span<const double> qs,
                                 std::span<double> out) const {
  if (qs.size() != out.size()) {
    throw std::invalid_argument("quantile_many: query/output size mismatch");
  }
  if (sorted_.empty()) throw std::invalid_argument("quantile of empty CDF");
#if LIBRA_SIMD_X86
  if (simd::active_isa() == simd::Isa::kAvx2 &&
      sorted_.size() < kMaxGatherElems) {
    quantile_many_avx2(sorted_.data(), sorted_.size(), qs.data(), out.data(),
                       qs.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < qs.size(); ++i) out[i] = quantile(qs[i]);
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve() const {
  std::vector<std::pair<double, double>> out;
  out.reserve(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (i + 1 < sorted_.size() && sorted_[i + 1] == sorted_[i]) continue;
    out.emplace_back(sorted_[i], static_cast<double>(i + 1) /
                                     static_cast<double>(sorted_.size()));
  }
  return out;
}

BoxplotSummary boxplot(std::span<const double> samples) {
  BoxplotSummary s;
  if (samples.empty()) return s;
  std::vector<double> v(samples.begin(), samples.end());
  EmpiricalCdf cdf(std::move(v));
  const double qs[5] = {0.0, 0.25, 0.5, 0.75, 1.0};
  double vals[5];
  cdf.quantile_many(qs, vals);
  s.min = vals[0];
  s.q1 = vals[1];
  s.median = vals[2];
  s.q3 = vals[3];
  s.max = vals[4];
  s.mean = mean(samples);
  s.n = samples.size();
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  return EmpiricalCdf(std::move(v)).quantile(p / 100.0);
}

double pearson(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const std::size_t n = a.size();
#if LIBRA_SIMD_X86
  if (simd::active_isa() == simd::Isa::kAvx2) {
    const double ma = blocked_sum_avx2(a.data(), n) / static_cast<double>(n);
    const double mb = blocked_sum_avx2(b.data(), n) / static_cast<double>(n);
    const PearsonSums s = pearson_sums_avx2(a.data(), b.data(), n, ma, mb);
    if (s.va <= 0.0 || s.vb <= 0.0) return 0.0;
    return s.cov / std::sqrt(s.va * s.vb);
  }
#endif
  const double ma = blocked_sum(a.data(), n) / static_cast<double>(n);
  const double mb = blocked_sum(b.data(), n) / static_cast<double>(n);
  const PearsonSums s = pearson_sums_scalar(a.data(), b.data(), n, ma, mb);
  if (s.va <= 0.0 || s.vb <= 0.0) return 0.0;
  return s.cov / std::sqrt(s.va * s.vb);
}

}  // namespace libra::util
