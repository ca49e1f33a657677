#include "algos/ad_psgd.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

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
    policy_ = std::make_unique<CommunicationPolicy>(
        CommunicationPolicy::Uniform(harness_.topology()));

    if (with_monitor_) {
      core::MonitorOptions monitor_options;
      monitor_options.schedule_period_seconds = config_.monitor_period_seconds;
      monitor_options.ema_beta = config_.ema_beta;
      monitor_options.generator = config_.generator;
      monitor_options.generator.alpha = config_.learning_rate;
      // Section III-D: the same optimization with the averaging-mode Y matrix
      // and the relaxed Eq. (11) bound.
      monitor_options.generator.mode =
          core::PolicyGeneratorOptions::Mode::kAveraging;
      monitor_options.generator.averaging_weight = 0.5;
      monitor_ = std::make_unique<core::NetworkMonitor>(harness_.topology(),
                                                        monitor_options);
    }

    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start =
            [this, n] {
              if (with_monitor_) {
                harness_.Emit(config_.monitor_period_seconds,
                              core::kPlainEvent, {kMonitorTick, {}});
              }
              for (int w = 0; w < n; ++w) StartIteration(w);
            },
        .save = [this](Serializer& out) { return SaveEngineState(out); },
        .restore = [this](Deserializer& in) { return RestoreEngineState(in); },
        .chain = [this](int w) { StartIteration(w); },
        .pull = [this](int w, int m, double waited) {
          IssuePull(w, m, waited);
        },
        .monitor = monitor_.get(),
    });
  }

 private:
  // Reified event tags (ExperimentHarness::Emit).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [peer, compute_secs, wall_secs, round]
    kMonitorTick = 1,  // plain event: args []
  };

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
    if (with_monitor_) monitor_->Save(out);
    return Status::Ok();
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_ASSIGN_OR_RETURN(CommunicationPolicy policy,
                            core::LoadPolicy(in, harness_.topology()));
    // StartIteration redraws until it draws a peer, so every row needs some
    // neighbor mass.
    const int n = policy.num_workers();
    for (int w = 0; w < n; ++w) {
      bool has_neighbor_mass = false;
      for (int m = 0; m < n; ++m) {
        if (m != w && policy.probability(w, m) > 0.0) has_neighbor_mass = true;
      }
      if (!has_neighbor_mass) {
        return InvalidArgumentError("checkpointed policy row " +
                                    std::to_string(w) +
                                    " has no neighbor mass");
      }
    }
    policy_ = std::make_unique<CommunicationPolicy>(std::move(policy));
    return with_monitor_ ? monitor_->Restore(in) : Status::Ok();
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
    harness_.Emit(wall, w,
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
    if (with_monitor_) monitor_->Record(w, m, wall);
    harness_.AccountIteration(w, compute, wall);
    StartIteration(w);
  }

  void MonitorTick() {
    if (harness_.AllDone()) return;
    StatusOr<core::GeneratedPolicy> generated =
        monitor_->Tick(harness_.pool());
    if (generated.ok()) {
      policy_ = std::make_unique<CommunicationPolicy>(
          std::move(generated.value().policy));
    }
    harness_.Emit(config_.monitor_period_seconds, core::kPlainEvent,
                  {kMonitorTick, {}});
  }

  ExperimentHarness harness_;
  ExperimentConfig config_;
  bool with_monitor_;
  std::unique_ptr<CommunicationPolicy> policy_;
  std::unique_ptr<core::NetworkMonitor> monitor_;
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
