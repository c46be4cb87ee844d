// Fully-connected DNN (Sec. 6.2): 4 dense layers -- ReLU activations on the
// first three, sigmoid (binary) or softmax (multiclass) on the last -- with
// dropout after each hidden layer to curb overfitting, trained with Adam on
// cross-entropy. Features are standardized internally.
#pragma once

#include <vector>

#include "ml/data.h"

namespace libra::ml {

struct NeuralNetConfig {
  std::vector<int> hidden = {32, 24, 16};  // three hidden layers + output = 4
  double dropout = 0.2;
  double learning_rate = 5e-3;
  int epochs = 220;
  int batch_size = 16;
  double l2 = 1e-4;

  // Throws std::invalid_argument naming the field unless every hidden size
  // is >= 1, dropout is in [0, 1), learning_rate is finite and > 0,
  // epochs >= 0, batch_size >= 1 and l2 is finite and >= 0.
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
