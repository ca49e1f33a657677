#include "algos/ad_psgd.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/monitor.h"
#include "core/policy.h"

namespace netmax::algos {
namespace {

using core::CommunicationPolicy;
using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class AdPsgdEngine {
 public:
  AdPsgdEngine(const ExperimentConfig& config, bool with_monitor)
      : harness_(config, with_monitor ? "AD-PSGD+Monitor" : "AD-PSGD"),
        config_(config), with_monitor_(with_monitor) {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();
    topology_ = &harness_.topology();
    policy_ = std::make_unique<CommunicationPolicy>(
        CommunicationPolicy::Uniform(*topology_));

    if (with_monitor_) {
      core::MonitorOptions monitor_options;
      monitor_options.schedule_period_seconds = config_.monitor_period_seconds;
      monitor_options.generator = config_.generator;
      monitor_options.generator.alpha = config_.learning_rate;
      // Section III-D: the same optimization with the averaging-mode Y matrix
      // and the relaxed Eq. (11) bound.
      monitor_options.generator.mode =
          core::PolicyGeneratorOptions::Mode::kAveraging;
      monitor_options.generator.averaging_weight = 0.5;
      monitor_ = std::make_unique<core::NetworkMonitor>(*topology_,
                                                        monitor_options);
      ema_times_.assign(
          static_cast<size_t>(n),
          std::vector<ExponentialMovingAverage>(
              static_cast<size_t>(n),
              ExponentialMovingAverage(config_.ema_beta)));
    }

    builder_ = [this](const net::SavedEvent& event) {
      return BuildEvent(event);
    };
    harness_.SetIterationChain(
        [this](int w) { StartIteration(w); },
        [this](int w, int m, double waited) { IssuePull(w, m, waited); });
    if (harness_.restore_requested()) {
      NETMAX_RETURN_IF_ERROR(harness_.Restore(
          [this](Deserializer& in) { return RestoreEngineState(in); },
          builder_));
    } else {
      if (with_monitor_) {
        Emit(config_.monitor_period_seconds, core::kPlainEvent,
             {kMonitorTick, {}});
      }
      for (int w = 0; w < n; ++w) StartIteration(w);
    }
    harness_.ArmCheckpoint(
        [this](Serializer& out) { return SaveEngineState(out); });
    harness_.sim().RunUntilIdle();
    NETMAX_RETURN_IF_ERROR(harness_.checkpoint_status());
    if (monitor_ != nullptr) {
      harness_.set_policies_generated(monitor_->policies_generated());
    }
    return harness_.Finalize();
  }

 private:
  // Checkpoint reification tags (core/checkpoint.h).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [peer, compute_secs, wall_secs, round]
    kMonitorTick = 1,  // plain event: args []
  };

  void Emit(double delay, int worker_key, net::EventPayload payload) {
    core::ScheduleReified(harness_.sim(), delay, worker_key,
                          std::move(payload), builder_);
  }

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kIterate: {
        const int w = event.worker_key;
        if (w < 0 || w >= harness_.num_workers() || args.size() != 4) break;
        const int m = static_cast<int>(args[0]);
        const double compute = args[1];
        const double wall = args[2];
        const int64_t round = static_cast<int64_t>(args[3]);
        if (m < 0 || m >= harness_.num_workers() || m == w) break;
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, m, compute, wall, round](double loss) {
          CompleteIteration(w, m, compute, wall, round, loss);
        };
        return rebuilt;
      }
      case kMonitorTick: {
        if (event.worker_key >= 0 || !args.empty() || !with_monitor_) break;
        rebuilt.plain = [this] { MonitorTick(); };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed AD-PSGD event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  Status SaveEngineState(Serializer& out) {
    core::SaveMatrix(out, policy_->matrix());
    if (with_monitor_) {
      core::SaveEmaGrid(out, ema_times_);
      out.WriteI64(monitor_->policies_generated());
    }
    return Status::Ok();
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_ASSIGN_OR_RETURN(linalg::Matrix matrix, core::LoadMatrix(in));
    const int n = harness_.num_workers();
    if (matrix.rows() != n || matrix.cols() != n) {
      return InvalidArgumentError("checkpoint policy matrix shape mismatch");
    }
    policy_ = std::make_unique<CommunicationPolicy>(std::move(matrix));
    if (with_monitor_) {
      NETMAX_RETURN_IF_ERROR(core::RestoreEmaGrid(in, &ema_times_));
      NETMAX_ASSIGN_OR_RETURN(const int64_t generated, in.ReadI64());
      if (generated < 0) {
        return InvalidArgumentError("negative policies_generated count");
      }
      monitor_->set_policies_generated(generated);
    }
    return Status::Ok();
  }

  void StartIteration(int w) {
    if (!harness_.ContinueChain(w)) return;
    core::WorkerRuntime& worker = harness_.worker(w);
    int m = w;
    while (m == w) {
      m = worker.rng.Discrete(policy_->Row(w));
    }
    harness_.PullFrom(w, m);
  }

  // Gradient computation overlaps the pull; the evaluation itself is the
  // pure compute half and everything stateful commits in event order. The
  // wall time includes any wait the dead-peer policy held the pull for.
  void IssuePull(int w, int m, double waited) {
    const double compute = harness_.EffectiveComputeSeconds(w);
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(m, w, round);
    harness_.SampleBatch(w);
    const double wall = std::max(compute, transfer);
    Emit(wall, w,
         {kIterate,
          {static_cast<double>(m), compute, waited + wall,
           static_cast<double>(round)}});
  }

  void CompleteIteration(int w, int m, double compute, double wall,
                         int64_t round, double loss) {
    core::WorkerRuntime& worker = harness_.worker(w);
    // AD-PSGD order: average with the selected peer, then apply the gradient
    // that was computed concurrently. The averaging is atomic and symmetric —
    // both endpoints adopt (x_i + x_m)/2, as in Lian et al.'s W matrix —
    // which
    // preserves the parameter mean across the fleet.
    harness_.CommitBatchStats(w, loss);
    // A peer that died in flight leaves only the gradient step (and no
    // monitor EMA sample — no successful communication to measure).
    if (harness_.PullLost(w, m, compute, wall)) return;
    // Both endpoints' parameters are written below: notify before either
    // write so any evaluation the backend ran ahead (m's is usually
    // speculated) is invalidated and re-dispatched.
    harness_.sim().NotifyStateWrite(w);
    harness_.sim().NotifyStateWrite(m);
    auto x_i = worker.model->parameters();
    auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double mean = 0.5 * (x_i[j] + x_m[j]);
        x_i[j] = mean;
        x_m[j] = mean;
      }
    } else {
      // Compressed averaging: what crossed the wire is C(x_m - x_i), so both
      // endpoints move half of the decoded difference toward each other —
      // the exact averaging above when C is the identity, and still
      // mean-preserving for every lossy variant.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_m[j] - x_i[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double half = 0.5 * diff[j];
        x_i[j] += half;
        x_m[j] -= half;
      }
    }
    harness_.ApplyStoredGradient(w);
    if (with_monitor_) {
      ema_times_[static_cast<size_t>(w)][static_cast<size_t>(m)].Add(wall);
    }
    harness_.AccountIteration(w, compute, wall);
    StartIteration(w);
  }

  void MonitorTick() {
    if (harness_.AllDone()) return;
    const int n = harness_.num_workers();
    linalg::Matrix times(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int m : topology_->Neighbors(i)) {
        const auto& ema =
            ema_times_[static_cast<size_t>(i)][static_cast<size_t>(m)];
        if (ema.has_value()) times(i, m) = ema.value();
      }
    }
    StatusOr<core::GeneratedPolicy> generated =
        monitor_->ComputePolicy(times, harness_.pool());
    if (generated.ok()) {
      policy_ = std::make_unique<CommunicationPolicy>(
          std::move(generated.value().policy));
    }
    Emit(config_.monitor_period_seconds, core::kPlainEvent,
         {kMonitorTick, {}});
  }

  ExperimentHarness harness_;
  ExperimentConfig config_;
  bool with_monitor_;
  const net::Topology* topology_ = nullptr;
  std::unique_ptr<CommunicationPolicy> policy_;
  std::unique_ptr<core::NetworkMonitor> monitor_;
  std::vector<std::vector<ExponentialMovingAverage>> ema_times_;
  net::EventRebuilder builder_;
};

}  // namespace

StatusOr<core::RunResult> AdPsgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AdPsgdEngine engine(config, /*with_monitor=*/false);
  return engine.Run();
}

StatusOr<core::RunResult> AdPsgdWithMonitorAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AdPsgdEngine engine(config, /*with_monitor=*/true);
  return engine.Run();
}

}  // namespace netmax::algos
