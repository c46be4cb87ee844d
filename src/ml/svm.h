// Support vector machine (Sec. 6.2): soft-margin SVM trained with a
// simplified SMO solver, supporting linear and RBF kernels and different
// regularization parameters C (the axes the paper explores). Multiclass is
// handled one-vs-rest. Features are standardized internally.
#pragma once

#include <vector>

#include "ml/data.h"

namespace libra::ml {

enum class Kernel { kLinear, kRbf };

struct SvmConfig {
  Kernel kernel = Kernel::kRbf;
  double c = 5.0;  // regularization; finite and > 0
};

inline constexpr double kSvmGamma = 0.5;  // RBF width (standardized features)
inline constexpr double kSvmTolerance = 1e-3;
inline constexpr int kSvmMaxPasses = 8;  // SMO: passes without alpha updates
inline constexpr int kSvmMaxIterations = 3000;

// Binary SVM with labels in {-1, +1}.
class BinarySvm {
 public:
  // Throws std::invalid_argument unless cfg.c is finite and > 0.
  explicit BinarySvm(SvmConfig cfg = {});

  // y must contain only -1 and +1; x needs at least 2 rows (SMO pairs each
  // row with a different one). Throws std::invalid_argument otherwise.
  void fit(const DataSet& x, const std::vector<int>& y, util::Rng& rng);
  double decision(std::span<const double> features) const;

 private:
  double kernel_eval(std::span<const double> a, std::span<const double> b) const;

  SvmConfig cfg_;
  DataSet support_;            // retained training points (alpha > 0)
  std::vector<double> alpha_y_;  // alpha_i * y_i per support vector
  double bias_ = 0.0;
};

class Svm : public Classifier {
 public:
  // Throws std::invalid_argument unless cfg.c is finite and > 0.
  explicit Svm(SvmConfig cfg = {});

  // Throws std::invalid_argument on fewer than 2 rows.
  void fit(const DataSet& train, util::Rng& rng) override;
  Label predict(std::span<const double> features) const override;

 private:
  SvmConfig cfg_;
  Standardizer standardizer_;
  std::vector<BinarySvm> one_vs_rest_;
  int num_classes_ = 2;
};

}  // namespace libra::ml
