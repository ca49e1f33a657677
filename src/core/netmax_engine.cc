#include "core/netmax_engine.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/monitor.h"
#include "linalg/vector_ops.h"
#include "net/fault_schedule.h"

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
    topology_ = &harness_.topology();

    // Initial uniform policy and rho_0 with
    // alpha * rho_0 * (M - 1) = initial_consensus_coefficient.
    policy_ = std::make_unique<CommunicationPolicy>(
        CommunicationPolicy::Uniform(*topology_));
    rho_ = config_.initial_consensus_coefficient /
           (config_.learning_rate * static_cast<double>(n - 1));

    // Monitor (Algorithm 1).
    MonitorOptions monitor_options;
    monitor_options.schedule_period_seconds = config_.monitor_period_seconds;
    monitor_options.generator = config_.generator;
    monitor_options.generator.alpha = config_.learning_rate;
    monitor_ = std::make_unique<NetworkMonitor>(*topology_, monitor_options);

    // Per-link iteration-time EMAs (Algorithm 2, UPDATETIMEVECTOR).
    ema_times_.assign(
        static_cast<size_t>(n),
        std::vector<ExponentialMovingAverage>(
            static_cast<size_t>(n),
            ExponentialMovingAverage(config_.ema_beta)));

    parked_.assign(static_cast<size_t>(n), 0);
    builder_ = [this](const net::SavedEvent& event) {
      return BuildEvent(event);
    };
    if (harness_.restore_requested()) {
      NETMAX_RETURN_IF_ERROR(harness_.Restore(
          [this](Deserializer& in) { return RestoreEngineState(in); },
          builder_));
    } else {
      for (int w = 0; w < n; ++w) StartIteration(w);
      if (config_.adaptive_policy) {
        Emit(config_.monitor_period_seconds, kPlainEvent, {kMonitorTick, {}});
      }
    }
    harness_.ArmCheckpoint(
        [this](Serializer& out) { return SaveEngineState(out); });
    // A rejoining worker whose iteration chain parked (it was dead when its
    // last commit tried to start the next iteration) is restarted here; a
    // worker that rejoins while its final pre-leave event is still in flight
    // keeps its chain and must not get a second one.
    harness_.set_fault_listener([this](const net::FaultEvent& fault) {
      if (fault.kind == net::FaultKind::kJoin &&
          parked_[static_cast<size_t>(fault.worker)] != 0) {
        StartIteration(fault.worker);
      }
    });
    harness_.sim().RunUntilIdle();
    NETMAX_RETURN_IF_ERROR(harness_.checkpoint_status());
    harness_.set_policies_generated(monitor_->policies_generated());
    return harness_.Finalize();
  }

 private:
  // Checkpoint reification tags (core/checkpoint.h).
  enum Tag : int64_t {
    kSelfStep = 0,      // compute event: args [compute_seconds]
    kPull = 1,  // compute event: args [peer, compute_secs, wall_secs, round]
    kMonitorTick = 2,   // plain event: args []
    kDegradedStep = 3,  // compute event: args [compute_secs, wall_secs]
    kPeerWait = 4,      // plain event: args [worker, peer, waited_secs]
    kPeerTimeout = 5,   // plain event: args [worker, peer]
  };

  void Emit(double delay, int worker_key, net::EventPayload payload) {
    ScheduleReified(harness_.sim(), delay, worker_key, std::move(payload),
                    builder_);
  }

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
        const int m = static_cast<int>(args[0]);
        const double compute = args[1];
        const double wall = args[2];
        const int64_t round = static_cast<int64_t>(args[3]);
        if (m < 0 || m >= n || m == w) break;
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
      case kDegradedStep: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || args.size() != 2) break;
        const double compute = args[0];
        const double wall = args[1];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, compute, wall](double loss) {
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          harness_.AccountIteration(w, compute, wall);
          StartIteration(w);
        };
        return rebuilt;
      }
      case kPeerWait: {
        if (event.worker_key >= 0 || args.size() != 3) break;
        const int w = static_cast<int>(args[0]);
        const int m = static_cast<int>(args[1]);
        const double waited = args[2];
        if (w < 0 || w >= n || m < 0 || m >= n || m == w) break;
        rebuilt.plain = [this, w, m, waited] { PeerWaitTick(w, m, waited); };
        return rebuilt;
      }
      case kPeerTimeout: {
        if (event.worker_key >= 0 || args.size() != 2) break;
        const int w = static_cast<int>(args[0]);
        const int m = static_cast<int>(args[1]);
        if (w < 0 || w >= n || m < 0 || m >= n || m == w) break;
        rebuilt.plain = [this, w, m] { PeerTimeoutExpired(w, m); };
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
    SaveEmaGrid(out, ema_times_);
    out.WriteI64(monitor_->policies_generated());
    for (const uint8_t parked : parked_) out.WriteBool(parked != 0);
    return Status::Ok();
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_ASSIGN_OR_RETURN(linalg::Matrix matrix, LoadMatrix(in));
    const int n = harness_.num_workers();
    if (matrix.rows() != n || matrix.cols() != n) {
      return InvalidArgumentError("checkpoint policy matrix shape mismatch");
    }
    policy_ = std::make_unique<CommunicationPolicy>(std::move(matrix));
    NETMAX_ASSIGN_OR_RETURN(rho_, in.ReadDouble());
    NETMAX_RETURN_IF_ERROR(RestoreEmaGrid(in, &ema_times_));
    NETMAX_ASSIGN_OR_RETURN(const int64_t generated, in.ReadI64());
    if (generated < 0) {
      return InvalidArgumentError("negative policies_generated count");
    }
    monitor_->set_policies_generated(generated);
    for (size_t w = 0; w < parked_.size(); ++w) {
      NETMAX_ASSIGN_OR_RETURN(const bool parked, in.ReadBool());
      parked_[w] = parked ? 1 : 0;
    }
    return Status::Ok();
  }

  void StartIteration(int w) {
    if (harness_.WorkerDone(w)) {
      parked_[static_cast<size_t>(w)] = 1;
      return;
    }
    parked_[static_cast<size_t>(w)] = 0;
    WorkerRuntime& worker = harness_.worker(w);
    const int m = worker.rng.Discrete(policy_->Row(w));
    const double compute = harness_.EffectiveComputeSeconds(w);
    if (m != w && !harness_.WorkerAlive(m)) {
      // The drawn peer is dead: hold this round per the peer policy. The
      // batch is sampled only when (and if) the pull actually goes out.
      BeginPeerWait(w, m);
      return;
    }
    // Two-phase iteration: the peer draw and batch sampling happen here (the
    // commit context of the previous iteration), the gradient evaluation is
    // the pure compute half, and CompleteIteration is the ordered commit.
    harness_.SampleBatch(w);
    if (m == w) {
      // Self-selection: pure local step, no communication this iteration.
      Emit(compute, w, {kSelfStep, {compute}});
      return;
    }
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(m, w, round);
    const double wall = config_.overlap_communication
                            ? std::max(compute, transfer)
                            : compute + transfer;
    Emit(wall, w,
         {kPull,
          {static_cast<double>(m), compute, wall,
           static_cast<double>(round)}});
  }

  // Peer m was dead when w's draw selected it. kWait re-probes liveness at
  // the poll cadence (bounded by the run's virtual-time cap); kTimeoutAnd-
  // Continue arms a single deadline after which w degrades to a local step.
  void BeginPeerWait(int w, int m) {
    harness_.CountDegradedRound();
    if (config_.peer_policy == PeerPolicy::kTimeoutAndContinue) {
      Emit(config_.peer_timeout_seconds, kPlainEvent,
           {kPeerTimeout, {static_cast<double>(w), static_cast<double>(m)}});
    } else {
      Emit(config_.peer_poll_seconds, kPlainEvent,
           {kPeerWait,
            {static_cast<double>(w), static_cast<double>(m),
             config_.peer_poll_seconds}});
    }
  }

  void PeerWaitTick(int w, int m, double waited) {
    if (harness_.WorkerDone(w)) {
      parked_[static_cast<size_t>(w)] = 1;
      return;
    }
    if (harness_.WorkerAlive(m)) {
      ResumePull(w, m, waited);
      return;
    }
    Emit(config_.peer_poll_seconds, kPlainEvent,
         {kPeerWait,
          {static_cast<double>(w), static_cast<double>(m),
           waited + config_.peer_poll_seconds}});
  }

  void PeerTimeoutExpired(int w, int m) {
    if (harness_.WorkerDone(w)) {
      parked_[static_cast<size_t>(w)] = 1;
      return;
    }
    if (harness_.WorkerAlive(m)) {
      ResumePull(w, m, config_.peer_timeout_seconds);
      return;
    }
    harness_.CountPeerTimeout();
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    Emit(compute, w,
         {kDegradedStep, {compute, config_.peer_timeout_seconds + compute}});
  }

  // The held pull goes out: the iteration's wall time accounts the wait on
  // top of the usual compute/transfer leg (the Emit delay covers only the
  // latter — the wait already elapsed in virtual time).
  void ResumePull(int w, int m, double waited) {
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(m, w, round);
    const double wall = config_.overlap_communication
                            ? std::max(compute, transfer)
                            : compute + transfer;
    Emit(wall, w,
         {kPull,
          {static_cast<double>(m), compute, waited + wall,
           static_cast<double>(round)}});
  }

  void CompleteIteration(int w, int m, double compute, double wall,
                         int64_t round, double loss) {
    WorkerRuntime& worker = harness_.worker(w);
    // First-step update: local gradients (Algorithm 2 line 11).
    harness_.CommitBatchStats(w, loss);
    harness_.ApplyStoredGradient(w);
    if (!harness_.WorkerAlive(m)) {
      // The peer died while this pull was in flight: keep the local gradient
      // progress, skip the consensus leg (and its EMA sample — there was no
      // successful communication to measure).
      harness_.CountDegradedRound();
      harness_.AccountIteration(w, compute, wall);
      StartIteration(w);
      return;
    }
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
    // evaluation the backend ran ahead for them (m usually has a pending
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
    ema_times_[static_cast<size_t>(w)][static_cast<size_t>(m)].Add(wall);
    harness_.AccountIteration(w, compute, wall);
    StartIteration(w);
  }

  void MonitorTick() {
    if (harness_.AllDone()) return;  // training is over; monitor stops
    const int n = harness_.num_workers();
    linalg::Matrix times(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int m : topology_->Neighbors(i)) {
        const auto& ema =
            ema_times_[static_cast<size_t>(i)][static_cast<size_t>(m)];
        if (ema.has_value()) times(i, m) = ema.value();
      }
    }
    StatusOr<GeneratedPolicy> generated =
        monitor_->ComputePolicy(times, harness_.pool());
    if (generated.ok()) {
      policy_ = std::make_unique<CommunicationPolicy>(
          std::move(generated.value().policy));
      rho_ = generated->rho;
    }
    // Warm-up (no measurements yet) or infeasible configurations keep the
    // previous policy; either way the monitor keeps running.
    Emit(config_.monitor_period_seconds, kPlainEvent, {kMonitorTick, {}});
  }

  ExperimentHarness harness_;
  ExperimentConfig config_;
  const net::Topology* topology_ = nullptr;
  std::unique_ptr<CommunicationPolicy> policy_;
  std::unique_ptr<NetworkMonitor> monitor_;
  double rho_ = 0.0;
  std::vector<std::vector<ExponentialMovingAverage>> ema_times_;
  // Per-worker "iteration chain is parked" flag: set when WorkerDone stopped
  // the chain (death, finish, or time cap), cleared when it restarts. The
  // join fault listener restarts only parked chains, so a worker can never
  // run two chains at once.
  std::vector<uint8_t> parked_;
  net::EventRebuilder builder_;
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
