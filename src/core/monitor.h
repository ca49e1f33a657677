#ifndef NETMAX_CORE_MONITOR_H_
#define NETMAX_CORE_MONITOR_H_

// Network Monitor (paper Algorithm 1).
//
// The monitor is the only centralized component of NetMax and it never sees
// training data or model parameters: every schedule period Ts it collects the
// per-link iteration-time EMAs [t_{i,m}] from the workers, runs the policy
// generator (Algorithm 3), and pushes the new policy (P, rho) back. Inside
// the simulator this class is the whole of Algorithm 1's state: the n x n
// EMA grid the workers' UPDATETIMEVECTOR steps feed (Record), the policy
// generation on a tick (Tick), the handling of not-yet-measured links, and
// the grid's checkpoint section. NetMax and the Section III-D AD-PSGD+Monitor
// extension share it unchanged; each engine only records its measured
// iterations, schedules the ticks, and adopts the policies they return.

#include <optional>
#include <vector>

#include "common/serialize.h"
#include "common/stats.h"
#include "core/policy_generator.h"

namespace netmax::core {

struct MonitorOptions {
  // Ts: how often the monitor recomputes the policy (paper: 2 minutes).
  double schedule_period_seconds = 120.0;
  // Smoothing of the per-link iteration-time EMAs.
  double ema_beta = 0.5;
  PolicyGeneratorOptions generator;
};

class NetworkMonitor {
 public:
  NetworkMonitor(net::Topology topology, MonitorOptions options);

  // UPDATETIMEVECTOR: folds one measured iteration of worker w pulling from
  // peer m, `wall_seconds` long, into that link's EMA.
  void Record(int w, int m, double wall_seconds);

  // The time matrix the workers report: each neighbor link's EMA, 0 where
  // the link has not been measured yet.
  linalg::Matrix TimeMatrix() const;

  // Fills links that no worker has measured yet (entry <= 0) with the largest
  // measured time — a conservative guess that steers traffic away from
  // unknown links until they are probed. Returns nullopt if nothing has been
  // measured at all.
  std::optional<linalg::Matrix> FillMissingTimes(
      const linalg::Matrix& ema_times) const;

  // Assembles the time matrix from `ema_times` and runs Algorithm 3.
  // Returns kFailedPrecondition while no link has been measured yet, or the
  // generator's error if no feasible policy exists. A non-null `pool` fans
  // the generator's (rho, t_bar) grid search out across it (same result).
  StatusOr<GeneratedPolicy> ComputePolicy(const linalg::Matrix& ema_times,
                                          ThreadPool* pool = nullptr) const;

  // One monitor tick: ComputePolicy over the recorded EMAs.
  StatusOr<GeneratedPolicy> Tick(ThreadPool* pool = nullptr) const {
    return ComputePolicy(TimeMatrix(), pool);
  }

  const MonitorOptions& options() const { return options_; }
  const net::Topology& topology() const { return generator_.topology(); }

  // Number of successful policy computations so far (diagnostics).
  int64_t policies_generated() const { return policies_generated_; }

  // Checkpoint section: the EMA grid (row count, then per row its column
  // count and each cell's value and sample count) followed by the generation
  // count. Restore requires the saved grid to be n x n and every count to be
  // non-negative (kInvalidArgument otherwise); each cell keeps its beta.
  void Save(Serializer& out) const;
  Status Restore(Deserializer& in);

 private:
  ExponentialMovingAverage& ema(int w, int m) {
    return ema_times_[static_cast<size_t>(w) * static_cast<size_t>(n_) +
                      static_cast<size_t>(m)];
  }
  const ExponentialMovingAverage& ema(int w, int m) const {
    return ema_times_[static_cast<size_t>(w) * static_cast<size_t>(n_) +
                      static_cast<size_t>(m)];
  }

  MonitorOptions options_;
  PolicyGenerator generator_;
  int n_ = 0;
  std::vector<ExponentialMovingAverage> ema_times_;  // row-major n x n
  mutable int64_t policies_generated_ = 0;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_MONITOR_H_
