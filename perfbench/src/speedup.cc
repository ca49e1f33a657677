#include "perfbench/src/speedup.h"

#include <cmath>

namespace netmax::perfbench {

StatusOr<double> TimeToLoss(const ml::Series& series, double threshold) {
  const std::optional<double> time = ml::TimeToThreshold(series, threshold);
  if (!time.has_value()) {
    return FailedPreconditionError("loss series never reaches " +
                                   std::to_string(threshold));
  }
  return *time;
}

StatusOr<double> TimeToLossSpeedup(const ml::Series& baseline,
                                   const ml::Series& candidate,
                                   double threshold) {
  NETMAX_ASSIGN_OR_RETURN(const double base, TimeToLoss(baseline, threshold));
  NETMAX_ASSIGN_OR_RETURN(const double cand, TimeToLoss(candidate, threshold));
  if (!(cand > 0.0) || !std::isfinite(base / cand)) {
    return FailedPreconditionError("time-to-loss speedup is undefined");
  }
  return base / cand;
}

}  // namespace netmax::perfbench
