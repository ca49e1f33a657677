#include "core/netmax_engine.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/monitor.h"
#include "linalg/vector_ops.h"

namespace netmax::core {
namespace {

// Consensus coefficients are clamped below this to keep the second-step
// update a contraction even while policy and rho are transiently mismatched
// (e.g. right after a monitor update).
constexpr double kMaxConsensusCoefficient = 0.95;

class NetMaxEngine {
 public:
  explicit NetMaxEngine(const ExperimentConfig& config)
      : harness_(config, "NetMax"), config_(config) {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();

    // Initial uniform policy and rho_0 with
    // alpha * rho_0 * (M - 1) = initial_consensus_coefficient.
    policy_ = std::make_unique<CommunicationPolicy>(
        CommunicationPolicy::Uniform(harness_.topology()));
    rho_ = config_.initial_consensus_coefficient /
           (config_.learning_rate * static_cast<double>(n - 1));

    // Monitor (Algorithm 1), fed by every successful pull's iteration time.
    MonitorOptions monitor_options;
    monitor_options.schedule_period_seconds = config_.monitor_period_seconds;
    monitor_options.ema_beta = config_.ema_beta;
    monitor_options.generator = config_.generator;
    monitor_options.generator.alpha = config_.learning_rate;
    monitor_ = std::make_unique<NetworkMonitor>(harness_.topology(),
                                                monitor_options);

    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start =
            [this, n] {
              for (int w = 0; w < n; ++w) StartIteration(w);
              if (config_.adaptive_policy) {
                harness_.Emit(config_.monitor_period_seconds, kPlainEvent,
                              {kMonitorTick, {}});
              }
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
    kSelfStep = 0,      // compute event: args [compute_seconds]
    kPull = 1,  // compute event: args [peer, compute_secs, wall_secs, round]
    kMonitorTick = 2,   // plain event: args []
  };

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    const int n = harness_.num_workers();
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kSelfStep: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || args.size() != 1) break;
        const double compute = args[0];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          harness_.AccountIteration(w, compute, compute);
          StartIteration(w);
        };
        return rebuilt;
      }
      case kPull: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || args.size() != 4) break;
        int m = 0;
        int64_t round = 0;
        if (!net::DecodeIntArg(args[0], 0, n - 1, &m) || m == w ||
            !net::DecodeIntArg(args[3], 0, net::kMaxExactIntArg, &round)) {
          break;
        }
        const double compute = args[1];
        const double wall = args[2];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, m, compute, wall, round](double loss) {
          CompleteIteration(w, m, compute, wall, round, loss);
        };
        return rebuilt;
      }
      case kMonitorTick: {
        if (event.worker_key >= 0 || !args.empty()) break;
        rebuilt.plain = [this] { MonitorTick(); };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed NetMax event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  Status SaveEngineState(Serializer& out) {
    SaveMatrix(out, policy_->matrix());
    out.WriteDouble(rho_);
    monitor_->Save(out);
    return Status::Ok();
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_ASSIGN_OR_RETURN(CommunicationPolicy policy,
                            LoadPolicy(in, harness_.topology()));
    policy_ = std::make_unique<CommunicationPolicy>(std::move(policy));
    NETMAX_ASSIGN_OR_RETURN(rho_, in.ReadDouble());
    return monitor_->Restore(in);
  }

  void StartIteration(int w) {
    if (!harness_.ContinueChain(w)) return;
    WorkerRuntime& worker = harness_.worker(w);
    const int m = worker.rng.Discrete(policy_->Row(w));
    if (m != w) {
      harness_.PullFrom(w, m);
      return;
    }
    // Self-selection: pure local step, no communication this iteration.
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    harness_.Emit(compute, w, {kSelfStep, {compute}});
  }

  // Two-phase iteration: the peer draw and batch sampling happen in the
  // commit context of the previous iteration (or of the dead-peer wait that
  // held it), the gradient evaluation is the pure compute half, and
  // CompleteIteration is the ordered commit. The iteration's wall time
  // accounts any wait on top of the compute/transfer leg (the event delay
  // covers only the latter — the wait already elapsed in virtual time).
  void IssuePull(int w, int m, double waited) {
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(m, w, round);
    const double wall = config_.overlap_communication
                            ? std::max(compute, transfer)
                            : compute + transfer;
    harness_.Emit(wall, w,
                  {kPull,
                   {static_cast<double>(m), compute, waited + wall,
                    static_cast<double>(round)}});
  }

  void CompleteIteration(int w, int m, double compute, double wall,
                         int64_t round, double loss) {
    WorkerRuntime& worker = harness_.worker(w);
    harness_.CommitBatchStats(w, loss);
    // A peer that died in flight leaves only the local step (and no EMA
    // sample — there was no successful communication to measure).
    if (harness_.PullLost(w, m, compute, wall)) return;
    // First-step update: local gradients (Algorithm 2 line 11).
    harness_.ApplyStoredGradient(w);
    // Second-step update: consensus pull (lines 13-14) against m's current
    // ("freshest") parameters:
    //   x_i <- x_i - alpha * rho/p_{i,m} * (x_i - x_m).
    // alpha here is the constant learning rate the convergence analysis and
    // the policy generator use (Theorems 1-3 assume a fixed alpha); tying the
    // consensus strength to the *decayed* SGD rate would silently turn off
    // mixing in late training and break the lambda_2-based policy objective.
    const double p = policy_->probability(w, m);
    NETMAX_CHECK_GT(p, 0.0);
    // For feasible policies Eq. (11) gives p >= 2*alpha*rho, so the
    // coefficient is at most 1/2 — exactly the perfect-swap bound of the
    // symmetric exchange below.
    const double coefficient = std::min(
        config_.symmetric_consensus ? 0.5 : kMaxConsensusCoefficient,
        config_.learning_rate * rho_ / p);
    // The consensus step writes both endpoints' parameters: invalidate any
    // evaluation the simulator ran ahead for them (m usually has a pending
    // compute event; a second-pass re-dispatch of it may still be running,
    // and the notify blocks until it is safe to write).
    harness_.sim().NotifyStateWrite(w);
    if (config_.symmetric_consensus) harness_.sim().NotifyStateWrite(m);
    auto x_i = worker.model->parameters();
    auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double delta = coefficient * (x_i[j] - x_m[j]);
        x_i[j] -= delta;
        if (config_.symmetric_consensus) x_m[j] += delta;
      }
    } else {
      // Compressed pull: w received C(x_i - x_m) — the difference as the
      // compressor's round-`round` encoding reconstructs it — so both
      // endpoints move along the decoded difference and stay symmetric.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_i[j] - x_m[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double delta = coefficient * diff[j];
        x_i[j] -= delta;
        if (config_.symmetric_consensus) x_m[j] += delta;
      }
    }
    // Iteration-time EMA (line 16 / lines 19-22).
    monitor_->Record(w, m, wall);
    harness_.AccountIteration(w, compute, wall);
    StartIteration(w);
  }

  void MonitorTick() {
    if (harness_.AllDone()) return;  // training is over; monitor stops
    StatusOr<GeneratedPolicy> generated = monitor_->Tick(harness_.pool());
    if (generated.ok()) {
      policy_ = std::make_unique<CommunicationPolicy>(
          std::move(generated.value().policy));
      rho_ = generated->rho;
    }
    // Warm-up (no measurements yet) or infeasible configurations keep the
    // previous policy; either way the monitor keeps running.
    harness_.Emit(config_.monitor_period_seconds, kPlainEvent,
                  {kMonitorTick, {}});
  }

  ExperimentHarness harness_;
  ExperimentConfig config_;
  std::unique_ptr<CommunicationPolicy> policy_;
  std::unique_ptr<NetworkMonitor> monitor_;
  double rho_ = 0.0;
};

}  // namespace

StatusOr<RunResult> NetMaxAlgorithm::Run(const ExperimentConfig& config) const {
  NetMaxEngine engine(config);
  return engine.Run();
}

NetMaxVariantAlgorithm::NetMaxVariantAlgorithm(bool overlap, bool adaptive)
    : overlap_(overlap), adaptive_(adaptive) {
  name_ = std::string(overlap ? "parallel" : "serial") + "+" +
          (adaptive ? "adaptive" : "uniform");
}

StatusOr<RunResult> NetMaxVariantAlgorithm::Run(
    const ExperimentConfig& config) const {
  ExperimentConfig variant = config;
  variant.overlap_communication = overlap_;
  variant.adaptive_policy = adaptive_;
  NetMaxEngine engine(variant);
  StatusOr<RunResult> result = engine.Run();
  if (result.ok()) result.value().algorithm = name_;
  return result;
}

}  // namespace netmax::core
