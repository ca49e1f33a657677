#ifndef NETMAX_ML_MODEL_H_
#define NETMAX_ML_MODEL_H_

// Trainable-model interface.
//
// Decentralized SGD only needs three things from a model: a flat parameter
// vector (what workers exchange in Algorithm 2), minibatch loss+gradient
// (line 11's local update), and prediction (test accuracy). Engines and the
// sharding driver see a model only through this interface; ml::Mlp is its
// one implementation, verified against finite-difference gradients and the
// naive reference (tests/reference_impls.h) in tests.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/sharding.h"
#include "ml/workspace.h"

namespace netmax::ml {

class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;

  virtual int num_parameters() const = 0;

  // Flat view of the parameters; consensus updates mutate this in place.
  virtual std::span<double> parameters() = 0;
  virtual std::span<const double> parameters() const = 0;

  // (Re-)initializes the parameters (scaled Gaussian fan-in init),
  // deterministically in `seed`.
  virtual void InitializeParameters(uint64_t seed) = 0;

  // Computes the mean cross-entropy loss over `batch_indices` of `data` and,
  // if `gradient` is non-empty, writes d(loss)/d(parameters) into it
  // (`gradient.size()` must equal num_parameters()). Does not modify the
  // model. Returns the loss.
  virtual double LossAndGradient(const Dataset& data,
                                 std::span<const int> batch_indices,
                                 std::span<double> gradient) const = 0;

  // Workspace overload: the zero-allocation batched hot path. Scratch memory
  // comes from `workspace` (grow-only, reused across batches), and results
  // are bit-identical to the workspace-free overload — implementations keep
  // the same per-element summation order. Implementations define this
  // overload through the fixed leaf decomposition of ml/sharding.h (per-leaf
  // unscaled partials, pairwise tree reduction), which is what makes the
  // sharded parallel evaluation bit-identical to this serial call.
  virtual double LossAndGradient(const Dataset& data,
                                 std::span<const int> batch_indices,
                                 std::span<double> gradient,
                                 TrainingWorkspace& workspace) const = 0;

  // Shard-range entry point of the leaf decomposition (ml/sharding.h): for
  // each leaf l in [leaf_begin, leaf_end) of GradientLeafRange(batch, l),
  // writes the UNSCALED loss sum over the leaf's samples into
  // loss_sums[l - leaf_begin] and, when `gradient_sums` is non-empty, the
  // unscaled gradient sum into
  //   gradient_sums.subspan((l - leaf_begin) * num_parameters(),
  //                         num_parameters()).
  // Pure with respect to the model and dataset (safe to run concurrently for
  // disjoint output slices and distinct workspaces). Non-virtual by design:
  // this slicing loop defines the bit-identity contract once for every
  // model; per-model arithmetic plugs in via LeafLossAndGradientSums below.
  void EvalGradientLeaves(const Dataset& data,
                          std::span<const int> batch_indices, int leaf_begin,
                          int leaf_end, std::span<double> loss_sums,
                          std::span<double> gradient_sums,
                          TrainingWorkspace& workspace) const {
    const size_t width = static_cast<size_t>(num_parameters());
    for (int l = leaf_begin; l < leaf_end; ++l) {
      const LeafRange range = GradientLeafRange(batch_indices.size(), l);
      const std::span<const int> leaf =
          batch_indices.subspan(range.begin, range.size());
      const size_t k = static_cast<size_t>(l - leaf_begin);
      loss_sums[k] = LeafLossAndGradientSums(
          data, leaf,
          gradient_sums.empty() ? std::span<double>{}
                                : gradient_sums.subspan(k * width, width),
          workspace);
    }
  }

  // Predicted class for example `index` of `data`.
  virtual int Predict(const Dataset& data, int index) const = 0;

  // Batched prediction: writes the predicted class of every `indices[i]` to
  // `out[i]` (`out.size()` must equal `indices.size()`), sharing one forward
  // pass over the whole batch. The evaluation counterpart of the workspace
  // LossAndGradient overload (same scratch reuse, same bit-identical
  // results). Contract: implementations (of this and the LossAndGradient
  // overload) may use only the workspace's double Scratch slots — IntScratch
  // slots are reserved for callers, whose index spans may be backed by them.
  virtual void PredictBatch(const Dataset& data, std::span<const int> indices,
                            std::span<int> out,
                            TrainingWorkspace& workspace) const = 0;

  // Sizes of the contiguous parameter segments that layer-wise partial sync
  // (ml/compression.h) masks over, one per layer; entries sum to
  // num_parameters().
  virtual std::vector<int64_t> LayerSegments() const = 0;

  // Deep copy (architecture + parameters).
  virtual std::unique_ptr<Model> Clone() const = 0;

 protected:
  // One leaf of EvalGradientLeaves: the unscaled loss sum over `leaf`, with
  // the unscaled gradient sums written into `gradient` (size
  // num_parameters(); empty = loss only). Like the overloads above,
  // implementations may use only the workspace's double Scratch slots —
  // ReduceScratch slots belong to the sharding driver and IntScratch slots
  // to callers.
  virtual double LeafLossAndGradientSums(
      const Dataset& data, std::span<const int> leaf,
      std::span<double> gradient, TrainingWorkspace& workspace) const = 0;
};

}  // namespace netmax::ml

#endif  // NETMAX_ML_MODEL_H_
