#ifndef NETMAX_TESTS_REFERENCE_IMPLS_H_
#define NETMAX_TESTS_REFERENCE_IMPLS_H_

// Test-only naive reference implementation of Mlp::LossAndGradient: the
// seed's per-sample, allocation-heavy formulation, retained verbatim so the
// golden tests can certify that the workspace/batched production path
// reproduces it (to 1e-12; in practice bit for bit — the kernels preserve
// summation order). Not built into any library: production code must never
// call it.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/mlp.h"

namespace netmax::ml::reference {

// Seed Mlp::LossAndGradient: per-sample forward with per-layer activation
// vectors, per-sample backward with fresh delta buffers.
inline double MlpLossAndGradient(const Mlp& model, const Dataset& data,
                                 std::span<const int> batch_indices,
                                 std::span<double> gradient) {
  const std::vector<int>& sizes = model.layer_sizes();
  const int num_layers = model.num_layers();
  std::span<const double> params = model.parameters();
  const bool want_gradient = !gradient.empty();
  if (want_gradient) std::fill(gradient.begin(), gradient.end(), 0.0);

  std::vector<std::vector<double>> activations(
      static_cast<size_t>(num_layers));
  double total_loss = 0.0;
  for (int index : batch_indices) {
    const std::span<const double> x = data.features(index);
    const int label = data.label(index);

    std::span<const double> input = x;
    for (int l = 0; l < num_layers; ++l) {
      const size_t in = static_cast<size_t>(sizes[static_cast<size_t>(l)]);
      const size_t out = static_cast<size_t>(sizes[static_cast<size_t>(l) + 1]);
      auto& act = activations[static_cast<size_t>(l)];
      act.assign(out, 0.0);
      const double* w = params.data() + model.WeightOffset(l);
      const double* b = params.data() + model.BiasOffset(l);
      for (size_t o = 0; o < out; ++o) {
        double acc = b[o];
        const double* row = w + o * in;
        for (size_t j = 0; j < in; ++j) acc += row[j] * input[j];
        act[o] = acc;
      }
      if (l + 1 < num_layers) {
        for (double& v : act) v = std::max(0.0, v);  // ReLU
      }
      input = act;
    }

    std::vector<double> probs = activations.back();
    SoftmaxInPlace(probs);
    total_loss += CrossEntropyFromProbabilities(probs, label);
    if (!want_gradient) continue;

    std::vector<double> delta = probs;
    delta[static_cast<size_t>(label)] -= 1.0;
    for (int l = num_layers - 1; l >= 0; --l) {
      const size_t in = static_cast<size_t>(sizes[static_cast<size_t>(l)]);
      const size_t out = static_cast<size_t>(sizes[static_cast<size_t>(l) + 1]);
      const std::span<const double> layer_input =
          l == 0 ? x
                 : std::span<const double>(
                       activations[static_cast<size_t>(l) - 1]);
      double* gw = gradient.data() + model.WeightOffset(l);
      double* gb = gradient.data() + model.BiasOffset(l);
      for (size_t o = 0; o < out; ++o) {
        const double d = delta[o];
        if (d != 0.0) {
          double* grow = gw + o * in;
          for (size_t j = 0; j < in; ++j) grow[j] += d * layer_input[j];
        }
        gb[o] += d;
      }
      if (l > 0) {
        const double* w = params.data() + model.WeightOffset(l);
        std::vector<double> prev_delta(in, 0.0);
        for (size_t o = 0; o < out; ++o) {
          const double d = delta[o];
          if (d == 0.0) continue;
          const double* row = w + o * in;
          for (size_t j = 0; j < in; ++j) prev_delta[j] += d * row[j];
        }
        const auto& prev_act = activations[static_cast<size_t>(l) - 1];
        for (size_t j = 0; j < in; ++j) {
          if (prev_act[j] <= 0.0) prev_delta[j] = 0.0;
        }
        delta = std::move(prev_delta);
      }
    }
  }
  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  if (want_gradient) {
    for (double& g : gradient) g *= inv_batch;
  }
  return total_loss * inv_batch;
}

}  // namespace netmax::ml::reference

#endif  // NETMAX_TESTS_REFERENCE_IMPLS_H_
