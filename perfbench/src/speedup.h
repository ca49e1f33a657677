#ifndef NETMAX_PERFBENCH_SPEEDUP_H_
#define NETMAX_PERFBENCH_SPEEDUP_H_

// The paper's time-to-loss speedup reading (Fig. 8: "NetMax reaches a given
// loss 1.9x faster than AD-PSGD"), computed from loss-vs-virtual-time series
// at a loss level such as bench::CommonLossThreshold's.

#include "common/status.h"
#include "ml/metrics.h"

namespace netmax::perfbench {

// Virtual seconds `series` takes to first reach `threshold`, interpolating
// linearly between points. Fails if the series never reaches it.
StatusOr<double> TimeToLoss(const ml::Series& series, double threshold);

// Time-to-loss of `baseline` over that of `candidate` at `threshold`: above
// 1 when the candidate gets there first.
StatusOr<double> TimeToLossSpeedup(const ml::Series& baseline,
                                   const ml::Series& candidate,
                                   double threshold);

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_SPEEDUP_H_
