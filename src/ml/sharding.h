#ifndef NETMAX_ML_SHARDING_H_
#define NETMAX_ML_SHARDING_H_

// Intra-worker gradient sharding: one worker's minibatch evaluated as
// several deterministic shards, combinable across any number of threads.
//
// The batched LossAndGradient of every model is defined over a FIXED leaf
// decomposition of the batch: contiguous chunks of kGradientLeafSamples
// samples (the last leaf takes the remainder). Each leaf produces an
// unscaled partial — the loss sum and, when requested, the gradient sum over
// its samples — and the partials are combined by a fixed-shape pairwise tree
// reduction, then scaled by 1/batch once. Because the leaf geometry and the
// tree shape depend only on the batch size (never on the shard or thread
// count), the summed gradient is bit-identical whether the leaves are
// evaluated serially in one call or spread over any number of concurrent
// shard tasks: sharding changes WHO computes a leaf, never WHAT is summed in
// which order. Batches of at most kGradientLeafSamples samples degenerate to
// a single leaf, i.e. exactly the pre-sharding whole-batch arithmetic.
//
// ShardedLossAndGradient below is the one driver of that contract: the
// serial model overloads call it without a pool, and the experiment
// harness's EvalBatchGradient calls it with the simulation pool and the
// config's `shards` knob, nested inside the distinct-worker compute
// frontier (common/thread_pool.h ParallelFor nests safely).

#include <cstddef>
#include <span>

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::ml {

class Dataset;
class Model;
class TrainingWorkspace;

// Samples per gradient leaf. A compile-time constant by design: the leaf
// geometry is part of the numeric contract, so a runtime knob here would
// silently change every result bit.
inline constexpr size_t kGradientLeafSamples = 8;

// Gradient width (in doubles) above which the pairwise tree reduction of the
// leaf partials itself fans out on the pool: the tree is element-wise across
// the parameter axis, so the columns split into contiguous chunks that each
// run the full fixed-shape tree independently — same adds, same order, per
// element, therefore bit-identical to the serial combine for any chunking.
// Below the threshold the combine stays serial (the fan-out overhead would
// dominate). Compile-time constant for the same reason as the leaf size:
// it must never look like a result-affecting knob (it is not — only the
// real-time cost changes).
inline constexpr size_t kPooledReduceMinWidth = 1 << 14;

// Number of leaves in the fixed decomposition of a `batch`-sample batch
// (ceil(batch / kGradientLeafSamples); 0 only for an empty batch).
int GradientLeafCount(size_t batch);

// Half-open sample range [begin, end) of leaf `leaf` (contiguous chunks of
// kGradientLeafSamples, remainder in the last leaf).
struct LeafRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};
LeafRange GradientLeafRange(size_t batch, int leaf);

// Evaluates `model`'s mean loss (and, when `gradient` is non-empty, mean
// gradient) over `batch_indices` through the leaf decomposition above.
// With a pool, up to `shards` concurrent tasks (clamped to the leaf count;
// <= 1, or a null pool, means one serial task) each evaluate a contiguous
// leaf range into per-leaf partial buffers carved from `workspace`
// (ReduceScratch slots; task t > 0 uses workspace.ShardWorkspace(t) for its
// model scratch). The gradient partials are tree-reduced on the calling
// thread, except for wide models (num_parameters >= kPooledReduceMinWidth
// with a pool): there the column range fans out onto the pool, each task
// running the full fixed-shape tree over its contiguous column chunk.
// Returns the mean loss; results are bit-identical for every (pool, shards)
// combination, including the serial call and the pooled combine.
double ShardedLossAndGradient(const Model& model, const Dataset& data,
                              std::span<const int> batch_indices,
                              std::span<double> gradient,
                              TrainingWorkspace& workspace, ThreadPool* pool,
                              int shards);

}  // namespace netmax::ml

#endif  // NETMAX_ML_SHARDING_H_
