#include "algos/gossip_sgd.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>


namespace netmax::algos {
namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class GossipEngine {
 public:
  explicit GossipEngine(const ExperimentConfig& config)
      : harness_(config, "GoSGD") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();
    push_busy_until_.assign(static_cast<size_t>(n), 0.0);
    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start = [this, n] {
          for (int w = 0; w < n; ++w) StartIteration(w);
        },
        .save = [this](Serializer& out) {
          out.WriteDoubleVec(push_busy_until_);
          return Status::Ok();
        },
        .restore = [this](Deserializer& in) {
          return in.ReadDoubleSpan(push_busy_until_);
        },
        .chain = [this](int w) { StartIteration(w); },
    });
  }

 private:
  // Reified event tags (ExperimentHarness::Emit).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [compute_seconds]
    kArrival = 1,  // plain event: args [receiver, round, sender snapshot...]
  };

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kIterate: {
        const int w = event.worker_key;
        if (w < 0 || w >= harness_.num_workers() || args.size() != 1) break;
        const double compute = args[0];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          MaybePush(w);
          // The push does not block the training loop: wall time is compute
          // only.
          harness_.AccountIteration(w, compute, compute);
          StartIteration(w);
        };
        return rebuilt;
      }
      case kArrival: {
        const size_t num_params = harness_.worker(0).gradient.size();
        if (event.worker_key >= 0 || args.size() != 2 + num_params) break;
        int m = 0;
        int64_t round = 0;
        if (!net::DecodeIntArg(args[0], 0, harness_.num_workers() - 1, &m) ||
            !net::DecodeIntArg(args[1], 0, net::kMaxExactIntArg, &round)) {
          break;
        }
        rebuilt.plain = [this, m, round,
                         snapshot = std::vector<double>(args.begin() + 2,
                                                        args.end())] {
          if (!harness_.WorkerAlive(m)) {
            // The receiver died while the push was in flight: drop it.
            harness_.CountDegradedRound();
            return;
          }
          // Arrival writes the receiver's parameters — invalidate whatever
          // the simulator ran ahead for m (an in-flight evaluation is waited
          // out first).
          harness_.sim().NotifyStateWrite(m);
          auto x_m = harness_.worker(m).model->parameters();
          if (!harness_.compression_enabled()) {
            for (size_t j = 0; j < x_m.size(); ++j) {
              x_m[j] = 0.5 * (x_m[j] + snapshot[j]);
            }
          } else {
            // The push carried C(snapshot - x_m^push); decode against the
            // receiver's current parameters (arrivals are ordered, so this
            // is the deterministic gossip analogue of the exact average).
            // Int8's stochastic rounding draws from the receiver's stream —
            // the worker whose state this plain event commits.
            std::span<double> diff = harness_.CompressionScratch();
            for (size_t j = 0; j < x_m.size(); ++j) {
              diff[j] = snapshot[j] - x_m[j];
            }
            harness_.ApplyCompression(m, round, diff);
            for (size_t j = 0; j < x_m.size(); ++j) {
              x_m[j] += 0.5 * diff[j];
            }
          }
        };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed GoSGD event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void StartIteration(int w) {
    if (!harness_.ContinueChain(w)) return;
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    harness_.Emit(compute, w, {kIterate, {compute}});
  }

  void MaybePush(int w) {
    const double now = harness_.sim().Now();
    if (now < push_busy_until_[static_cast<size_t>(w)]) return;  // NIC busy
    core::WorkerRuntime& worker = harness_.worker(w);
    const auto& neighbors = harness_.topology().Neighbors(w);
    const int m = neighbors[static_cast<size_t>(worker.rng.UniformInt(
        0, static_cast<int64_t>(neighbors.size()) - 1))];
    if (!harness_.WorkerAlive(m)) {
      // Push-gossip never blocks: a dead target just means no push this
      // iteration (the NIC stays free for the next draw).
      harness_.CountDegradedRound();
      return;
    }
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(w, m, round);  // w -> m push
    push_busy_until_[static_cast<size_t>(w)] = now + transfer;
    // Snapshot the sender's parameters at push time; the snapshot rides in
    // the event payload so an in-flight push checkpoints/restores losslessly.
    const auto p = worker.model->parameters();
    std::vector<double> args;
    args.reserve(2 + p.size());
    args.push_back(static_cast<double>(m));
    args.push_back(static_cast<double>(round));
    args.insert(args.end(), p.begin(), p.end());
    harness_.Emit(transfer, core::kPlainEvent, {kArrival, std::move(args)});
  }

  ExperimentHarness harness_;
  std::vector<double> push_busy_until_;
};

}  // namespace

StatusOr<core::RunResult> GossipSgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  GossipEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
