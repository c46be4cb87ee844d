// Descriptive statistics used by the dataset analysis (Figs. 4-9 CDFs),
// the evaluation (Figs. 10-13 CDFs and boxplots) and the ML metrics.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace libra::util {

// Numerically stable running mean/variance (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // unbiased sample variance (n-1); 0 for n < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Empirical CDF over a sample. Values are sorted once at construction.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  // Inverse CDF; q in [0,1]. Linear interpolation between order statistics.
  double quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

// Five-number summary + mean, as used by the paper's boxplots (Figs. 12-13).
struct BoxplotSummary {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::size_t n = 0;
};
BoxplotSummary boxplot(std::span<const double> samples);

double mean(std::span<const double> xs);
double median(std::span<const double> xs);
double percentile(std::span<const double> xs, double p);  // p in [0,100]

// Pearson correlation coefficient; returns 0 when either side is constant.
// Used for PDP similarity and CSI similarity (Sec. 6.1) — a per-frame
// serving cost, so the sums run 4 lanes wide (lane j accumulates indices
// congruent j mod 4, combined (s0+s2)+(s1+s3), tail appended after the
// combine). The scalar path uses the identical schedule, so the AVX2 path
// is bit-identical to it.
double pearson(std::span<const double> a, std::span<const double> b);

}  // namespace libra::util
