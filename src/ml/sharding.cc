#include "ml/sharding.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/model.h"
#include "ml/workspace.h"

namespace netmax::ml {
namespace {

// ReduceScratch slot layout of the sharding driver.
constexpr int kSlotLossSums = 0;
constexpr int kSlotGradientSums = 1;

// Fixed-shape pairwise tree reduction over `count` contiguous partials of
// `width` doubles each, restricted to the column slice [col_begin, col_end),
// in place; the reduced partial lands in slot 0. Each level sums adjacent
// pairs (slot 2i + slot 2i+1 -> slot i) and moves an odd leftover down
// unchanged, so the tree shape — and therefore every rounding step — depends
// only on `count`, never on who produced the partials. The reduction is
// element-wise across columns, which is what lets disjoint slices run
// concurrently without touching the per-element arithmetic.
void TreeReduceColumns(std::span<double> partials, int count, size_t width,
                       size_t col_begin, size_t col_end) {
  int n = count;
  while (n > 1) {
    const int pairs = n / 2;
    for (int i = 0; i < pairs; ++i) {
      double* dst = partials.data() + width * static_cast<size_t>(i);
      const double* a = partials.data() + width * static_cast<size_t>(2 * i);
      const double* b =
          partials.data() + width * static_cast<size_t>(2 * i + 1);
      for (size_t j = col_begin; j < col_end; ++j) dst[j] = a[j] + b[j];
    }
    if (n % 2 == 1 && n > 1) {
      double* dst = partials.data() + width * static_cast<size_t>(pairs);
      const double* src = partials.data() + width * static_cast<size_t>(n - 1);
      if (dst != src) {
        std::copy(src + col_begin, src + col_end,
                  dst + col_begin);  // value move, no FP
      }
    }
    n = pairs + n % 2;
  }
}

// Minimum columns per pooled reduce task: below this the slice is too small
// to amortize the fan-out.
constexpr size_t kReduceChunkColumns = 1 << 12;

// Tree-reduces `count` partials of `width` doubles, fanning the column range
// onto `pool` for wide models (width >= kPooledReduceMinWidth). Bits are
// identical either way: chunking only changes who reduces a column.
void TreeReducePartials(std::span<double> partials, int count, size_t width,
                        ThreadPool* pool) {
  if (pool != nullptr && count >= 2 && width >= kPooledReduceMinWidth) {
    const size_t max_tasks = static_cast<size_t>(pool->num_threads()) + 1;
    const size_t tasks = std::min(max_tasks, width / kReduceChunkColumns);
    if (tasks >= 2) {
      ParallelFor(*pool, static_cast<int>(tasks), [&](int t) {
        const size_t lo = width * static_cast<size_t>(t) / tasks;
        const size_t hi = width * (static_cast<size_t>(t) + 1) / tasks;
        TreeReduceColumns(partials, count, width, lo, hi);
      });
      return;
    }
  }
  TreeReduceColumns(partials, count, width, 0, width);
}

}  // namespace

int GradientLeafCount(size_t batch) {
  return static_cast<int>((batch + kGradientLeafSamples - 1) /
                          kGradientLeafSamples);
}

LeafRange GradientLeafRange(size_t batch, int leaf) {
  LeafRange range;
  range.begin = static_cast<size_t>(leaf) * kGradientLeafSamples;
  range.end = std::min(batch, range.begin + kGradientLeafSamples);
  NETMAX_CHECK_LT(range.begin, range.end) << "leaf out of range";
  return range;
}

double ShardedLossAndGradient(const Model& model, const Dataset& data,
                              std::span<const int> batch_indices,
                              std::span<double> gradient,
                              TrainingWorkspace& workspace, ThreadPool* pool,
                              int shards) {
  NETMAX_CHECK(!batch_indices.empty());
  const bool want_gradient = !gradient.empty();
  const size_t width =
      want_gradient ? static_cast<size_t>(model.num_parameters()) : 0;
  if (want_gradient) {
    NETMAX_CHECK_EQ(static_cast<int>(gradient.size()),
                    model.num_parameters());
  }
  const int num_leaves = GradientLeafCount(batch_indices.size());

  std::span<double> loss_sums =
      workspace.ReduceScratch(kSlotLossSums, static_cast<size_t>(num_leaves));
  std::span<double> gradient_sums =
      want_gradient
          ? workspace.ReduceScratch(kSlotGradientSums,
                                    static_cast<size_t>(num_leaves) * width)
          : std::span<double>{};

  const int tasks =
      pool == nullptr ? 1 : std::clamp(shards, 1, num_leaves);
  if (tasks <= 1) {
    model.EvalGradientLeaves(data, batch_indices, 0, num_leaves, loss_sums,
                             gradient_sums, workspace);
  } else {
    // Contiguous balanced leaf ranges, one per task. Task 0 reuses the parent
    // workspace (its model scratch stays warm across serial/sharded calls);
    // every other task gets its own persistent child. Which task evaluates a
    // leaf never matters to the result — leaf partials are pure functions of
    // (model, data, indices).
    //
    // Materialize the children before fanning out: ShardWorkspace grows the
    // child table on first use, and the tasks look their child up
    // concurrently — the lookups must be reads of a settled table.
    for (int t = 1; t < tasks; ++t) workspace.ShardWorkspace(t - 1);
    ParallelFor(*pool, tasks, [&](int t) {
      const int lo = num_leaves * t / tasks;
      const int hi = num_leaves * (t + 1) / tasks;
      if (lo == hi) return;
      TrainingWorkspace& shard_workspace =
          t == 0 ? workspace : workspace.ShardWorkspace(t - 1);
      model.EvalGradientLeaves(
          data, batch_indices, lo, hi,
          loss_sums.subspan(static_cast<size_t>(lo),
                            static_cast<size_t>(hi - lo)),
          want_gradient
              ? gradient_sums.subspan(static_cast<size_t>(lo) * width,
                                      static_cast<size_t>(hi - lo) * width)
              : std::span<double>{},
          shard_workspace);
    });
  }

  TreeReducePartials(loss_sums, num_leaves, 1, nullptr);
  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  if (want_gradient) {
    TreeReducePartials(gradient_sums, num_leaves, width, pool);
    for (size_t j = 0; j < width; ++j) {
      gradient[j] = gradient_sums[j] * inv_batch;
    }
  }
  return loss_sums[0] * inv_batch;
}

}  // namespace netmax::ml
