// Fully-connected DNN (Sec. 6.2): 4 dense layers -- ReLU activations on the
// first three, sigmoid (binary) or softmax (multiclass) on the last -- with
// dropout after each hidden layer to curb overfitting, trained with Adam on
// cross-entropy. Features are standardized internally.
#pragma once

#include <array>
#include <vector>

#include "ml/data.h"

namespace libra::ml {

// Three hidden layers + the output layer = 4 dense layers.
inline constexpr std::array<int, 3> kNnHidden = {32, 24, 16};
inline constexpr double kNnLearningRate = 5e-3;
inline constexpr int kNnBatchSize = 16;
inline constexpr double kNnL2 = 1e-4;
static_assert(kNnHidden[0] >= 1 && kNnHidden[1] >= 1 && kNnHidden[2] >= 1);
static_assert(kNnLearningRate > 0.0 && kNnBatchSize >= 1 && kNnL2 >= 0.0);

struct NeuralNetConfig {
  double dropout = 0.2;
  int epochs = 220;

  // Throws std::invalid_argument naming the field unless dropout is in
  // [0, 1) and epochs >= 0.
  void validate() const;
};

class NeuralNet : public Classifier {
 public:
  explicit NeuralNet(NeuralNetConfig cfg = {});

  void fit(const DataSet& train, util::Rng& rng) override;
  Label predict(std::span<const double> features) const override;

  // Class probabilities for a (raw, unstandardized) feature row.
  std::vector<double> predict_proba(std::span<const double> features) const;

 private:
  struct Layer {
    int in = 0, out = 0;
    std::vector<double> w;  // row-major [out][in]
    std::vector<double> b;
    // Adam state.
    std::vector<double> mw, vw, mb, vb;
  };

  std::vector<double> forward(std::span<const double> x,
                              std::vector<std::vector<double>>* activations,
                              const std::vector<std::vector<bool>>* drop_masks)
      const;

  NeuralNetConfig cfg_;
  Standardizer standardizer_;
  std::vector<Layer> layers_;
  int num_classes_ = 2;
  long adam_t_ = 0;
};

}  // namespace libra::ml
