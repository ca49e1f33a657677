#ifndef NETMAX_ML_MLP_H_
#define NETMAX_ML_MLP_H_

// Multi-layer perceptron with ReLU activations and a softmax cross-entropy
// head. The non-convex stand-in for the paper's deep models: the consensus /
// gossip dynamics only interact with the flat parameter vector, so an MLP
// exercises exactly the code path a ResNet would, at laptop scale.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/model.h"

namespace netmax::ml {

class Mlp : public Model {
 public:
  // layer_sizes = {input_dim, hidden..., num_classes}; at least {in, out}.
  // Parameters are stored flat, layer by layer, each layer as
  // [W row-major (out x in) | b (out)].
  explicit Mlp(std::vector<int> layer_sizes);

  std::string name() const override { return "mlp"; }
  int num_parameters() const override;
  std::span<double> parameters() override { return params_; }
  std::span<const double> parameters() const override { return params_; }
  void InitializeParameters(uint64_t seed) override;
  double LossAndGradient(const Dataset& data,
                         std::span<const int> batch_indices,
                         std::span<double> gradient) const override;
  // Batched zero-allocation path: each gradient leaf (ml/sharding.h) moves
  // through the layers as one matrix-matrix product (bias-seeded GemmBias
  // against a transposed weight copy forward, GemmAtB/Gemm backward), with
  // every buffer carved from `workspace`; leaf partials combine by the fixed
  // pairwise tree, so this serial call is bit-identical to the sharded
  // parallel evaluation at any shard/thread count. Within a leaf the
  // summation order is the per-sample formulation's (ascending indices).
  double LossAndGradient(const Dataset& data,
                         std::span<const int> batch_indices,
                         std::span<double> gradient,
                         TrainingWorkspace& workspace) const override;
  int Predict(const Dataset& data, int index) const override;
  void PredictBatch(const Dataset& data, std::span<const int> indices,
                    std::span<int> out,
                    TrainingWorkspace& workspace) const override;
  std::unique_ptr<Model> Clone() const override;

  // One segment per layer: weights + bias of layer l as a single contiguous
  // block (matches the flat [W | b] layout above).
  std::vector<int64_t> LayerSegments() const override;

  const std::vector<int>& layer_sizes() const { return layer_sizes_; }
  int num_layers() const { return static_cast<int>(layer_sizes_.size()) - 1; }

  // Offset of layer l's weight / bias block within parameters() (exposed for
  // the naive reference implementation used by the golden tests).
  size_t WeightOffset(int layer) const;
  size_t BiasOffset(int layer) const;

 private:
  // Batched forward pass over `indices`: gathers features and fills one
  // activation matrix per layer in `workspace`; returns the logits matrix
  // (indices.size() x num_classes).
  std::span<double> ForwardBatch(const Dataset& data,
                                 std::span<const int> indices,
                                 TrainingWorkspace& workspace) const;

  // Native unscaled leaf evaluation (accumulates into zero-filled
  // `gradient`), plugged into the base class's EvalGradientLeaves loop.
  double LeafLossAndGradientSums(const Dataset& data,
                                 std::span<const int> leaf,
                                 std::span<double> gradient,
                                 TrainingWorkspace& workspace) const override;

  std::vector<int> layer_sizes_;
  std::vector<size_t> layer_offsets_;  // start of each layer's block
  std::vector<double> params_;
};

// Computes softmax probabilities of `logits` in place, numerically stably.
void SoftmaxInPlace(std::span<double> logits);

// Row-wise argmax of a row-major (rows x cols) logits matrix into `out`
// (size rows); ties break toward the lowest class index, matching
// single-example Predict.
void ArgmaxRows(std::span<const double> logits, size_t rows, size_t cols,
                std::span<int> out);

// Returns -log(probabilities[label]) with clamping away from 0.
double CrossEntropyFromProbabilities(std::span<const double> probabilities,
                                     int label);

}  // namespace netmax::ml

#endif  // NETMAX_ML_MLP_H_
