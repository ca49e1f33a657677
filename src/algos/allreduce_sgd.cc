#include "algos/allreduce_sgd.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vector_ops.h"

namespace netmax::algos {
namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class AllreduceEngine {
 public:
  explicit AllreduceEngine(const ExperimentConfig& config)
      : harness_(config, "Allreduce") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    // A restored queue carries the round's pending compute events; the
    // engine blob carries its membership and the outstanding-commit count.
    // A rejoining worker is picked up by the next round's membership.
    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start = [this] {
          harness_.Emit(0.0, core::kPlainEvent, {kRunRound, {}});
        },
        .save = [this](Serializer& out) {
          out.WriteIntVec(members_);
          out.WriteInt(pending_);
          return Status::Ok();
        },
        .restore = [this](Deserializer& in) { return RestoreEngineState(in); },
        .round = [this] { RunRound(); },
    });
  }

 private:
  // Reified event tags (ExperimentHarness::Emit).
  enum Tag : int64_t {
    kRoundCompute = 0,  // compute event: one worker's gradient, args []
    kRunRound = 1,      // plain event: start the next round, args []
  };

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kRoundCompute: {
        const int w = event.worker_key;
        const int n = harness_.num_workers();
        if (w < 0 || w >= n || !args.empty()) break;
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w](double loss) {
          harness_.CommitBatchStats(w, loss);
          // Commits run in membership order; the last one reduces. On full
          // membership this fires at worker n-1's commit, exactly like the
          // fixed-membership round structure did.
          if (--pending_ == 0) ReduceAndApply();
        };
        return rebuilt;
      }
      case kRunRound: {
        if (event.worker_key >= 0 || !args.empty()) break;
        rebuilt.plain = [this] { RunRound(); };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed Allreduce event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void RunRound() {
    if (harness_.AllDone()) return;
    // Round membership under the dead-peer policy: kWait keeps the paper's
    // synchronous semantics (a dead worker blocks the whole round),
    // kTimeoutAndContinue runs with the live, non-straggling workers.
    if (!harness_.SelectRoundMembers(&members_)) return;

    // Phase 1: the members compute gradients in parallel — one compute event
    // per member at the current time, so the pool evaluates the whole round
    // concurrently. Commits run in order; the last one reduces and starts
    // the next round.
    pending_ = static_cast<int>(members_.size());
    for (int w : members_) {
      harness_.SampleBatch(w);
      harness_.Emit(0.0, w, {kRoundCompute, {}});
    }
  }

  void ReduceAndApply() {
    const int g = static_cast<int>(members_.size());
    double max_compute = 0.0;
    std::vector<double> computes(static_cast<size_t>(g));
    for (int k = 0; k < g; ++k) {
      computes[static_cast<size_t>(k)] =
          harness_.EffectiveComputeSeconds(members_[static_cast<size_t>(k)]);
      max_compute = std::max(max_compute, computes[static_cast<size_t>(k)]);
    }

    // Phase 2: ring allreduce of the gradients over the members, at the
    // current virtual time (dynamic slowdowns apply). A single surviving
    // member reduces with nobody: communication-free round.
    double allreduce_seconds = 0.0;
    int64_t round = 0;
    if (g > 1) {
      // One communication round per allreduce; the first member's counter
      // indexes the layer-wise schedule for the whole ring.
      if (harness_.compression_enabled()) {
        round = harness_.NextCommRound(members_.front());
      }
      allreduce_seconds = harness_.RingAllreduceSeconds(members_, round);
    }

    // Average the members' gradients and apply the identical update on each
    // member replica (dead/dropped workers keep their stale parameters).
    // All of this round's compute events committed before the last member's
    // commit reached here and the next round is not scheduled yet, so no
    // speculation holds an evaluation that could read these writes mid-flight;
    // ApplyStoredGradient still notifies each worker per the contract.
    if (harness_.compression_enabled() && g > 1) {
      // Each member contributes C(g_w) to the reduce — the gradient as the
      // ring's round-`round` encoding reconstructs it. A single surviving
      // member reduces with nobody, so nothing crosses the wire (and nothing
      // is compressed).
      for (int w : members_) {
        harness_.ApplyCompression(w, round, harness_.worker(w).gradient);
      }
    }
    std::vector<double> mean_gradient(
        harness_.worker(0).gradient.size(), 0.0);
    for (int w : members_) {
      linalg::AddInPlace(harness_.worker(w).gradient, mean_gradient);
    }
    linalg::Scale(1.0 / static_cast<double>(g), mean_gradient);
    for (int w : members_) {
      harness_.worker(w).gradient = mean_gradient;
      harness_.ApplyStoredGradient(w);
    }

    // Gradients must be ready before the reduce: no overlap.
    const double wall = max_compute + allreduce_seconds;
    for (int k = 0; k < g; ++k) {
      harness_.AccountIteration(members_[static_cast<size_t>(k)],
                                computes[static_cast<size_t>(k)], wall);
    }
    harness_.Emit(wall, core::kPlainEvent, {kRunRound, {}});
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_RETURN_IF_ERROR(in.ReadIntVec(&members_));
    for (int w : members_) {
      if (w < 0 || w >= harness_.num_workers()) {
        return InvalidArgumentError("round member out of range");
      }
    }
    NETMAX_ASSIGN_OR_RETURN(pending_, in.ReadInt());
    if (pending_ < 0 || pending_ > static_cast<int>(members_.size())) {
      return InvalidArgumentError("pending commit count out of range");
    }
    return Status::Ok();
  }

  ExperimentHarness harness_;
  // The current round's membership and its outstanding commit count.
  std::vector<int> members_;
  int pending_ = 0;
};

}  // namespace

StatusOr<core::RunResult> AllreduceSgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AllreduceEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
