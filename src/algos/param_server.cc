#include "algos/param_server.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vector_ops.h"

namespace netmax::algos {
namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

// Local (same machine/region) worker <-> PS link for the co-located worker 0.
const net::LinkClass kPsLocalLink{/*latency_seconds=*/0.010,
                                  /*bandwidth_bytes_per_second=*/2.0e9};

// Shared PS state: the global model, its optimizer, and the serialized NIC.
class PsState {
 public:
  // `use_momentum` is false for the asynchronous server: interleaved pushes
  // from M workers through one shared velocity amplify every gradient ~M-fold
  // and diverge, so async parameter servers apply plain SGD steps (the
  // classic Hogwild-style update); the synchronous server sees one sequential
  // stream of averaged gradients and keeps momentum.
  PsState(ExperimentHarness& harness, const ExperimentConfig& config,
          bool use_momentum) {
    harness_ = &harness;
    model_ = harness.worker(0).model->Clone();
    ml::SgdOptions options;
    options.learning_rate = config.learning_rate;
    options.momentum = use_momentum ? config.momentum : 0.0;
    options.weight_decay = config.weight_decay;
    optimizer_ = std::make_unique<ml::SgdOptimizer>(model_->num_parameters(),
                                                    options);
  }

  // Transfer seconds for `bytes` between worker w and the PS at time `now`
  // (either direction; the paper's links are symmetric).
  double LinkSeconds(int w, double now, int64_t bytes) const {
    if (w == 0) return kPsLocalLink.TransferSeconds(bytes);
    return harness_->links().TransferSeconds(0, w, now, bytes);
  }

  // Reserves the PS NIC from max(now, free) for `duration`; returns the
  // transfer's completion time.
  double ReserveNic(double now, double duration) {
    const double start = std::max(now, nic_free_);
    nic_free_ = start + duration;
    return nic_free_;
  }

  ml::Model& model() { return *model_; }
  ml::SgdOptimizer& optimizer() { return *optimizer_; }

  void SaveState(Serializer& out) const {
    out.WriteDoubleVec(model_->parameters());
    optimizer_->SaveState(out);
    out.WriteDouble(nic_free_);
  }

  Status RestoreState(Deserializer& in) {
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(model_->parameters()));
    NETMAX_RETURN_IF_ERROR(optimizer_->RestoreState(in));
    NETMAX_ASSIGN_OR_RETURN(nic_free_, in.ReadDouble());
    return Status::Ok();
  }

 private:
  ExperimentHarness* harness_ = nullptr;
  std::unique_ptr<ml::Model> model_;
  std::unique_ptr<ml::SgdOptimizer> optimizer_;
  double nic_free_ = 0.0;
};

class PsSyncEngine {
 public:
  explicit PsSyncEngine(const ExperimentConfig& config)
      : harness_(config, "PS-syn") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    ps_ = std::make_unique<PsState>(harness_, harness_.config(),
                                    /*use_momentum=*/true);
    // A rejoining worker is picked up by the next round's membership.
    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start = [this] {
          harness_.Emit(0.0, core::kPlainEvent, {kRunRound, {}});
        },
        .save = [this](Serializer& out) {
          ps_->SaveState(out);
          out.WriteIntVec(members_);
          out.WriteInt(pending_);
          return Status::Ok();
        },
        .restore = [this](Deserializer& in) {
          NETMAX_RETURN_IF_ERROR(ps_->RestoreState(in));
          return RestoreRoundState(in);
        },
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
          // Commits run in membership order; the last one exchanges with the
          // PS — at worker n-1's commit on full membership, exactly like the
          // fixed-membership rounds did.
          if (--pending_ == 0) ExchangeWithServer();
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
    return InvalidArgumentError("malformed PS-syn event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void RunRound() {
    if (harness_.AllDone()) return;
    if (!harness_.SelectRoundMembers(&members_)) return;

    // Phase 1: parallel gradient computation on each member's own replica,
    // as one compute event per member at the current time so the pool runs
    // the round concurrently; the last commit performs the PS exchange.
    pending_ = static_cast<int>(members_.size());
    for (int w : members_) {
      harness_.SampleBatch(w);
      harness_.Emit(0.0, w, {kRoundCompute, {}});
    }
  }

  void ExchangeWithServer() {
    const int g = static_cast<int>(members_.size());
    const double t0 = harness_.sim().Now();
    double max_compute = 0.0;
    std::vector<double> computes(static_cast<size_t>(g));
    for (int k = 0; k < g; ++k) {
      computes[static_cast<size_t>(k)] =
          harness_.EffectiveComputeSeconds(members_[static_cast<size_t>(k)]);
      max_compute = std::max(max_compute, computes[static_cast<size_t>(k)]);
    }

    // One communication round per PS exchange: every member's upload and
    // download leg carries the same encoding. With compression off the
    // payload equals the dense baseline, so the transfer arithmetic below is
    // unchanged and bytes_saved stays zero.
    int64_t round = 0;
    if (harness_.compression_enabled()) {
      round = harness_.NextCommRound(members_.front());
    }
    const int64_t payload_bytes = harness_.MessagePayloadBytes(round);
    const int64_t baseline_bytes =
        harness_.config().profile.message_bytes();
    harness_.AccountWire(2 * g, 2 * g * payload_bytes,
                         2 * g * baseline_bytes);

    // Phase 2: uploads, serialized at the PS NIC (central congestion).
    double clock = t0;
    for (int k = 0; k < g; ++k) {
      const int w = members_[static_cast<size_t>(k)];
      const double ready = t0 + computes[static_cast<size_t>(k)];
      const double start = std::max(ready, clock);
      clock = start + ps_->LinkSeconds(w, start, payload_bytes);
    }

    // PS applies the averaged gradient once.
    if (harness_.compression_enabled()) {
      // Each member uploaded C(g_w): the PS averages the decoded gradients.
      for (int w : members_) {
        harness_.ApplyCompression(w, round, harness_.worker(w).gradient);
      }
    }
    std::vector<double> mean_gradient(harness_.worker(0).gradient.size(), 0.0);
    for (int w : members_) {
      linalg::AddInPlace(harness_.worker(w).gradient, mean_gradient);
    }
    linalg::Scale(1.0 / static_cast<double>(g), mean_gradient);
    ps_->optimizer().set_learning_rate(
        harness_.worker(0).optimizer->learning_rate());
    ps_->optimizer().Step(ps_->model().parameters(), mean_gradient);

    // Phase 3: downloads, serialized again; the round ends when the last
    // member holds the fresh model (dead/dropped workers keep their stale
    // replicas until they rejoin a round).
    for (int w : members_) {
      clock += ps_->LinkSeconds(w, clock, payload_bytes);
    }
    const auto fresh = ps_->model().parameters();
    for (int k = 0; k < g; ++k) {
      const int w = members_[static_cast<size_t>(k)];
      // Round-structured like allreduce: nothing is pending, but the
      // download writes every replica, so notify per the contract (a later
      // dispatch path that pre-dispatches the next round would rely on it).
      harness_.sim().NotifyStateWrite(w);
      auto params = harness_.worker(w).model->parameters();
      if (!harness_.compression_enabled()) {
        std::copy(fresh.begin(), fresh.end(), params.begin());
      } else {
        // The download carries C(fresh - x_w): the replica lands exactly on
        // the PS model where the encoding is lossless and moves by the
        // decoded difference elsewhere.
        std::span<double> diff = harness_.CompressionScratch();
        for (size_t j = 0; j < params.size(); ++j) {
          diff[j] = fresh[j] - params[j];
        }
        harness_.ApplyCompression(w, round, diff);
        for (size_t j = 0; j < params.size(); ++j) params[j] += diff[j];
      }
      harness_.AccountIteration(w, computes[static_cast<size_t>(k)],
                                clock - t0);
    }
    harness_.EmitAt(clock, core::kPlainEvent, {kRunRound, {}});
  }

  Status RestoreRoundState(Deserializer& in) {
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
  std::unique_ptr<PsState> ps_;
  // Current round membership and outstanding commit count.
  std::vector<int> members_;
  int pending_ = 0;
};

class PsAsyncEngine {
 public:
  explicit PsAsyncEngine(const ExperimentConfig& config)
      : harness_(config, "PS-asyn") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    ps_ = std::make_unique<PsState>(harness_, harness_.config(),
                                    /*use_momentum=*/false);
    // The PS itself never dies (worker faults only target workers). A worker
    // that dies mid round-trip finishes it — its NIC reservations already
    // happened — and parks at the download's StartIteration.
    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start = [this] {
          for (int w = 0; w < harness_.num_workers(); ++w) StartIteration(w);
        },
        .save = [this](Serializer& out) {
          ps_->SaveState(out);
          return Status::Ok();
        },
        .restore = [this](Deserializer& in) { return ps_->RestoreState(in); },
        .chain = [this](int w) { StartIteration(w); },
    });
  }

 private:
  // Reified event tags (ExperimentHarness::Emit). An in-flight PS round
  // trip checkpoints as its pending upload/download events: the NIC
  // reservations already happened at commit time and live in PsState's
  // nic_free_, and the worker's gradient rides in the worker snapshot, so the
  // pending events only need (w, t0, compute) to replay exactly.
  enum Tag : int64_t {
    kCompute = 0,   // compute event: args [t0, compute_seconds]
    kUpload = 1,    // plain event: args [worker, round]
    kDownload = 2,  // plain event: args [worker, t0, compute_seconds, round]
  };

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    const int n = harness_.num_workers();
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kCompute: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || args.size() != 2) break;
        const double t0 = args[0];
        const double compute = args[1];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, t0, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          const double now = harness_.sim().Now();
          // One communication round per PS round trip, claimed here so the
          // NIC reservations below price the round's actual payload.
          int64_t round = 0;
          if (harness_.compression_enabled()) {
            round = harness_.NextCommRound(w);
          }
          const int64_t payload_bytes = harness_.MessagePayloadBytes(round);
          const int64_t baseline_bytes =
              harness_.config().profile.message_bytes();
          harness_.AccountWire(2, 2 * payload_bytes, 2 * baseline_bytes);
          // Upload, then download, both serialized on the PS NIC; the worker
          // blocks for the round trip (async only across workers).
          const double upload_done = ps_->ReserveNic(
              now, ps_->LinkSeconds(w, now, payload_bytes));
          const double download_done = ps_->ReserveNic(
              upload_done,
              ps_->LinkSeconds(w, upload_done, payload_bytes));
          harness_.EmitAt(
              upload_done, core::kPlainEvent,
              {kUpload, {static_cast<double>(w), static_cast<double>(round)}});
          harness_.EmitAt(download_done, core::kPlainEvent,
                          {kDownload,
                           {static_cast<double>(w), t0, compute,
                            static_cast<double>(round)}});
        };
        return rebuilt;
      }
      case kUpload: {
        if (event.worker_key >= 0 || args.size() != 2) break;
        int w = 0;
        int64_t round = 0;
        if (!net::DecodeIntArg(args[0], 0, n - 1, &w) ||
            !net::DecodeIntArg(args[1], 0, net::kMaxExactIntArg, &round)) {
          break;
        }
        rebuilt.plain = [this, w, round] {
          // Async SGD: apply this worker's gradient immediately. The PS
          // received C(g_w); the decode happens in place (the buffer is
          // rewritten by w's next compute anyway).
          if (harness_.compression_enabled()) {
            harness_.ApplyCompression(w, round, harness_.worker(w).gradient);
          }
          ps_->optimizer().set_learning_rate(
              harness_.worker(w).optimizer->learning_rate());
          ps_->optimizer().Step(ps_->model().parameters(),
                                harness_.worker(w).gradient);
        };
        return rebuilt;
      }
      case kDownload: {
        if (event.worker_key >= 0 || args.size() != 4) break;
        int w = 0;
        int64_t round = 0;
        if (!net::DecodeIntArg(args[0], 0, n - 1, &w) ||
            !net::DecodeIntArg(args[3], 0, net::kMaxExactIntArg, &round)) {
          break;
        }
        const double t0 = args[1];
        const double compute = args[2];
        rebuilt.plain = [this, w, t0, compute, round] {
          // The download overwrites w's replica. w's own next compute is
          // only scheduled below, but OTHER workers' in-flight speculated
          // evaluations never read w's parameters, so notifying w alone
          // satisfies the write contract on either dispatch path.
          harness_.sim().NotifyStateWrite(w);
          const auto fresh = ps_->model().parameters();
          auto params = harness_.worker(w).model->parameters();
          if (!harness_.compression_enabled()) {
            std::copy(fresh.begin(), fresh.end(), params.begin());
          } else {
            // C(fresh - x_w): on-model where lossless, decoded elsewhere.
            std::span<double> diff = harness_.CompressionScratch();
            for (size_t j = 0; j < params.size(); ++j) {
              diff[j] = fresh[j] - params[j];
            }
            harness_.ApplyCompression(w, round, diff);
            for (size_t j = 0; j < params.size(); ++j) params[j] += diff[j];
          }
          harness_.AccountIteration(w, compute, harness_.sim().Now() - t0);
          StartIteration(w);
        };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed PS-asyn event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void StartIteration(int w) {
    if (!harness_.ContinueChain(w)) return;
    const double t0 = harness_.sim().Now();
    const double compute = harness_.EffectiveComputeSeconds(w);
    // Gradient at the worker's (possibly stale) parameters: pure compute
    // half; the NIC reservation and PS interaction commit in event order.
    harness_.SampleBatch(w);
    harness_.Emit(compute, w, {kCompute, {t0, compute}});
  }

  ExperimentHarness harness_;
  std::unique_ptr<PsState> ps_;
};

}  // namespace

StatusOr<core::RunResult> PsSyncAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PsSyncEngine engine(config);
  return engine.Run();
}

StatusOr<core::RunResult> PsAsyncAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PsAsyncEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
