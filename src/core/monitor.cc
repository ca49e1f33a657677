#include "core/monitor.h"

#include <algorithm>

namespace netmax::core {

NetworkMonitor::NetworkMonitor(net::Topology topology, MonitorOptions options)
    : options_(options),
      generator_(std::move(topology), options.generator),
      n_(generator_.topology().num_nodes()),
      ema_times_(static_cast<size_t>(n_) * static_cast<size_t>(n_),
                 ExponentialMovingAverage(options.ema_beta)) {
  NETMAX_CHECK_GT(options_.schedule_period_seconds, 0.0);
}

void NetworkMonitor::Record(int w, int m, double wall_seconds) {
  ema(w, m).Add(wall_seconds);
}

linalg::Matrix NetworkMonitor::TimeMatrix() const {
  linalg::Matrix times(n_, n_, 0.0);
  for (int i = 0; i < n_; ++i) {
    for (int m : topology().Neighbors(i)) {
      if (ema(i, m).has_value()) times(i, m) = ema(i, m).value();
    }
  }
  return times;
}

std::optional<linalg::Matrix> NetworkMonitor::FillMissingTimes(
    const linalg::Matrix& ema_times) const {
  const net::Topology& topo = generator_.topology();
  NETMAX_CHECK_EQ(ema_times.rows(), n_);
  NETMAX_CHECK_EQ(ema_times.cols(), n_);
  double max_measured = 0.0;
  for (int i = 0; i < n_; ++i) {
    for (int m : topo.Neighbors(i)) {
      max_measured = std::max(max_measured, ema_times(i, m));
    }
  }
  if (max_measured <= 0.0) return std::nullopt;
  linalg::Matrix filled = ema_times;
  for (int i = 0; i < n_; ++i) {
    for (int m : topo.Neighbors(i)) {
      if (filled(i, m) <= 0.0) filled(i, m) = max_measured;
    }
  }
  return filled;
}

StatusOr<GeneratedPolicy> NetworkMonitor::ComputePolicy(
    const linalg::Matrix& ema_times, ThreadPool* pool) const {
  std::optional<linalg::Matrix> filled = FillMissingTimes(ema_times);
  if (!filled.has_value()) {
    return FailedPreconditionError(
        "no iteration times measured yet; workers still warming up");
  }
  StatusOr<GeneratedPolicy> result = generator_.Generate(*filled, pool);
  if (result.ok()) ++policies_generated_;
  return result;
}

void NetworkMonitor::Save(Serializer& out) const {
  out.WriteU64(static_cast<uint64_t>(n_));
  for (int w = 0; w < n_; ++w) {
    out.WriteU64(static_cast<uint64_t>(n_));
    for (int m = 0; m < n_; ++m) {
      out.WriteDouble(ema(w, m).value());
      out.WriteI64(ema(w, m).count());
    }
  }
  out.WriteI64(policies_generated_);
}

Status NetworkMonitor::Restore(Deserializer& in) {
  const uint64_t n = static_cast<uint64_t>(n_);
  NETMAX_ASSIGN_OR_RETURN(const uint64_t rows, in.ReadU64());
  if (rows != n) {
    return InvalidArgumentError("checkpointed EMA grid row count mismatch");
  }
  for (int w = 0; w < n_; ++w) {
    NETMAX_ASSIGN_OR_RETURN(const uint64_t cols, in.ReadU64());
    if (cols != n) {
      return InvalidArgumentError(
          "checkpointed EMA grid column count mismatch");
    }
    for (int m = 0; m < n_; ++m) {
      NETMAX_ASSIGN_OR_RETURN(const double value, in.ReadDouble());
      NETMAX_ASSIGN_OR_RETURN(const int64_t count, in.ReadI64());
      if (count < 0) {
        return InvalidArgumentError("checkpointed EMA count is negative");
      }
      ema(w, m).RestoreState(value, count);
    }
  }
  NETMAX_ASSIGN_OR_RETURN(const int64_t generated, in.ReadI64());
  if (generated < 0) {
    return InvalidArgumentError("negative policies_generated count");
  }
  policies_generated_ = generated;
  return Status::Ok();
}

}  // namespace netmax::core
