#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace libra::ml {

namespace {
[[noreturn]] void reject(const char* field, const char* rule,
                         const std::string& got) {
  throw std::invalid_argument(std::string("NeuralNetConfig: ") + field +
                              " must be " + rule + ", got " + got);
}
}  // namespace

void NeuralNetConfig::validate() const {
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (hidden[i] < 1) {
      reject("hidden", ">= 1 in every layer",
             std::to_string(hidden[i]) + " in layer " + std::to_string(i));
    }
  }
  if (!(dropout >= 0.0 && dropout < 1.0)) {
    reject("dropout", "in [0, 1)", std::to_string(dropout));
  }
  if (!(std::isfinite(learning_rate) && learning_rate > 0.0)) {
    reject("learning_rate", "finite and > 0", std::to_string(learning_rate));
  }
  if (epochs < 0) reject("epochs", ">= 0", std::to_string(epochs));
  if (batch_size < 1) reject("batch_size", ">= 1", std::to_string(batch_size));
  if (!(std::isfinite(l2) && l2 >= 0.0)) {
    reject("l2", "finite and >= 0", std::to_string(l2));
  }
}

NeuralNet::NeuralNet(NeuralNetConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
}

std::vector<double> NeuralNet::forward(
    std::span<const double> x, std::vector<std::vector<double>>* activations,
    const std::vector<std::vector<bool>>* drop_masks) const {
  std::vector<double> a(x.begin(), x.end());
  if (activations) activations->push_back(a);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> z(static_cast<std::size_t>(layer.out));
    for (int o = 0; o < layer.out; ++o) {
      double sum = layer.b[static_cast<std::size_t>(o)];
      const double* w_row = &layer.w[static_cast<std::size_t>(o * layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        sum += w_row[i] * a[static_cast<std::size_t>(i)];
      }
      z[static_cast<std::size_t>(o)] = sum;
    }
    const bool last = (l + 1 == layers_.size());
    if (!last) {
      for (double& v : z) v = std::max(0.0, v);  // ReLU
      if (drop_masks) {
        // Inverted dropout: scale kept units so inference needs no rescale.
        const auto& mask = (*drop_masks)[l];
        for (std::size_t i = 0; i < z.size(); ++i) {
          z[i] = mask[i] ? z[i] / (1.0 - cfg_.dropout) : 0.0;
        }
      }
    } else {
      // Output: softmax (covers the 2-class sigmoid case as its 2-way
      // equivalent).
      const double zmax = *std::max_element(z.begin(), z.end());
      double denom = 0.0;
      for (double& v : z) {
        v = std::exp(v - zmax);
        denom += v;
      }
      for (double& v : z) v /= denom;
    }
    a = z;
    if (activations) activations->push_back(a);
  }
  return a;
}

void NeuralNet::fit(const DataSet& train, util::Rng& rng) {
  num_classes_ = std::max(train.num_classes(), 2);
  standardizer_.fit(train);
  const DataSet x = standardizer_.transform(train);

  // Build layers: hidden sizes then the class output.
  layers_.clear();
  int in_dim = static_cast<int>(x.num_features());
  std::vector<int> sizes = cfg_.hidden;
  sizes.push_back(num_classes_);
  for (int out_dim : sizes) {
    Layer layer;
    layer.in = in_dim;
    layer.out = out_dim;
    const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));  // He
    layer.w.resize(static_cast<std::size_t>(in_dim * out_dim));
    for (double& w : layer.w) w = rng.gaussian(0.0, scale);
    layer.b.assign(static_cast<std::size_t>(out_dim), 0.0);
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.b.size(), 0.0);
    layer.vb.assign(layer.b.size(), 0.0);
    layers_.push_back(std::move(layer));
    in_dim = out_dim;
  }
  adam_t_ = 0;

  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  std::vector<std::size_t> order(x.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(cfg_.batch_size)) {
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(cfg_.batch_size));
      // Gradient accumulators.
      std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        gw[l].assign(layers_[l].w.size(), 0.0);
        gb[l].assign(layers_[l].b.size(), 0.0);
      }
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t idx = order[bi];
        // Fresh dropout masks per sample.
        std::vector<std::vector<bool>> masks(layers_.size() - 1);
        for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
          masks[l].resize(static_cast<std::size_t>(layers_[l].out));
          for (std::size_t i = 0; i < masks[l].size(); ++i) {
            masks[l][i] = !rng.bernoulli(cfg_.dropout);
          }
        }
        std::vector<std::vector<double>> acts;
        const std::vector<double> probs = forward(x.row(idx), &acts, &masks);
        // Backprop: delta at output = p - onehot(y).
        std::vector<double> delta = probs;
        delta[static_cast<std::size_t>(x.label(idx))] -= 1.0;
        for (int l = static_cast<int>(layers_.size()) - 1; l >= 0; --l) {
          const Layer& layer = layers_[static_cast<std::size_t>(l)];
          const auto& a_in = acts[static_cast<std::size_t>(l)];
          for (int o = 0; o < layer.out; ++o) {
            const double d = delta[static_cast<std::size_t>(o)];
            gb[static_cast<std::size_t>(l)][static_cast<std::size_t>(o)] += d;
            double* gw_row =
                &gw[static_cast<std::size_t>(l)][static_cast<std::size_t>(
                    o * layer.in)];
            for (int i = 0; i < layer.in; ++i) {
              gw_row[i] += d * a_in[static_cast<std::size_t>(i)];
            }
          }
          if (l == 0) break;
          // Propagate through weights, ReLU derivative and dropout mask.
          std::vector<double> next(static_cast<std::size_t>(layer.in), 0.0);
          for (int i = 0; i < layer.in; ++i) {
            double sum = 0.0;
            for (int o = 0; o < layer.out; ++o) {
              sum += layer.w[static_cast<std::size_t>(o * layer.in + i)] *
                     delta[static_cast<std::size_t>(o)];
            }
            const double act = acts[static_cast<std::size_t>(l)]
                                   [static_cast<std::size_t>(i)];
            next[static_cast<std::size_t>(i)] = act > 0.0 ? sum : 0.0;
          }
          delta = std::move(next);
        }
      }
      // Adam update.
      ++adam_t_;
      const double batch = static_cast<double>(end - start);
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (std::size_t i = 0; i < layer.w.size(); ++i) {
          const double g = gw[l][i] / batch + cfg_.l2 * layer.w[i];
          layer.mw[i] = kBeta1 * layer.mw[i] + (1 - kBeta1) * g;
          layer.vw[i] = kBeta2 * layer.vw[i] + (1 - kBeta2) * g * g;
          layer.w[i] -= cfg_.learning_rate * (layer.mw[i] / bc1) /
                        (std::sqrt(layer.vw[i] / bc2) + kEps);
        }
        for (std::size_t i = 0; i < layer.b.size(); ++i) {
          const double g = gb[l][i] / batch;
          layer.mb[i] = kBeta1 * layer.mb[i] + (1 - kBeta1) * g;
          layer.vb[i] = kBeta2 * layer.vb[i] + (1 - kBeta2) * g * g;
          layer.b[i] -= cfg_.learning_rate * (layer.mb[i] / bc1) /
                        (std::sqrt(layer.vb[i] / bc2) + kEps);
        }
      }
    }
  }
}

std::vector<double> NeuralNet::predict_proba(
    std::span<const double> features) const {
  const std::vector<double> z = standardizer_.transform_row(features);
  return forward(z, nullptr, nullptr);
}

Label NeuralNet::predict(std::span<const double> features) const {
  const std::vector<double> probs = predict_proba(features);
  return static_cast<Label>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

}  // namespace libra::ml
