#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace libra::util {

namespace {

// 4-lane blocked sum: lane j accumulates indices congruent j mod 4, lanes
// combine as (s0+s2)+(s1+s3), and the tail is appended after the combine.
// pearson_sums below follows the same schedule. Floating-point addition is
// not associative, so this order is part of pearson's result: the golden
// fleet digest (sim/golden.h) and tests/paper_golden/ pin the PDP/CSI
// similarity features it produces, and SummationSchedule.* in
// tests/util_test.cpp pins it directly. Do not reorder it.
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

inline PearsonSums pearson_sums(const double* a, const double* b,
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

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
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

BoxplotSummary boxplot(std::span<const double> samples) {
  BoxplotSummary s;
  if (samples.empty()) return s;
  std::vector<double> v(samples.begin(), samples.end());
  EmpiricalCdf cdf(std::move(v));
  s.min = cdf.quantile(0.0);
  s.q1 = cdf.quantile(0.25);
  s.median = cdf.quantile(0.5);
  s.q3 = cdf.quantile(0.75);
  s.max = cdf.quantile(1.0);
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
  const double ma = blocked_sum(a.data(), n) / static_cast<double>(n);
  const double mb = blocked_sum(b.data(), n) / static_cast<double>(n);
  const PearsonSums s = pearson_sums(a.data(), b.data(), n, ma, mb);
  if (s.va <= 0.0 || s.vb <= 0.0) return 0.0;
  return s.cov / std::sqrt(s.va * s.vb);
}

}  // namespace libra::util
