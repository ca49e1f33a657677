// Extending the library: implement your own decentralized training algorithm
// against the public TrainingAlgorithm / ExperimentHarness API and benchmark
// it against NetMax on the same simulated cluster.
//
//   $ ./examples/custom_algorithm
//
// The toy algorithm below ("LazyGossip") only communicates every K-th
// iteration (local SGD with periodic pairwise averaging). It reuses the
// harness for data sharding, cost accounting, and metrics, so the comparison
// against the built-in algorithms is apples-to-apples — and it is written
// against the two-phase compute/commit event API, so it automatically runs
// its per-worker gradient work on the simulator's thread pool (threads knob
// on ExperimentConfig) with bit-identical results at any thread count. Note
// the three rules every engine follows: draw randomness at schedule time,
// keep the compute half pure, and NotifyStateWrite for every cross-worker
// parameter write in a commit.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "algos/registry.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/experiment.h"

namespace {

namespace core = netmax::core;

// Local SGD with a pairwise averaging exchange every `period` iterations.
class LazyGossipAlgorithm : public core::TrainingAlgorithm {
 public:
  explicit LazyGossipAlgorithm(int period) : period_(period) {}

  std::string name() const override { return "LazyGossip"; }

  netmax::StatusOr<core::RunResult> Run(
      const core::ExperimentConfig& config) const override {
    core::ExperimentHarness harness(config, name());
    NETMAX_RETURN_IF_ERROR(harness.Init());
    // The harness runs the lifecycle around the engine's hooks; this engine
    // only needs `start`. (A checkpointable engine also passes `build`,
    // `save` and `restore` and schedules through harness.Emit.)
    return harness.Run({.start = [this, &harness] {
      for (int w = 0; w < harness.num_workers(); ++w) {
        StartIteration(harness, w);
      }
    }});
  }

 private:
  void StartIteration(core::ExperimentHarness& harness, int w) const {
    if (harness.WorkerDone(w)) return;
    core::WorkerRuntime& worker = harness.worker(w);
    const double compute = worker.compute_seconds_per_batch;
    const bool communicate = worker.iterations % period_ == period_ - 1;
    // Schedule time (commit context): draw the batch — and the peer, when
    // communicating — so the compute half stays pure.
    harness.SampleBatch(w);
    if (!communicate) {
      harness.sim().ScheduleCompute(
          harness.sim().Now() + compute, w,
          [&harness, w] { return harness.EvalBatchGradient(w); },
          [&harness, w, compute, this](double loss) {
            harness.CommitBatchStats(w, loss);
            harness.ApplyStoredGradient(w);
            harness.AccountIteration(w, compute, compute);
            StartIteration(harness, w);
          });
      return;
    }
    // Communication round: pull a uniformly random peer; the gradient
    // computation overlaps the transfer.
    const auto& neighbors = harness.topology().Neighbors(w);
    const int m = neighbors[static_cast<size_t>(
        worker.rng.UniformInt(0, static_cast<int64_t>(neighbors.size()) - 1))];
    const double wall = std::max(compute, harness.PullSeconds(m, w));
    harness.sim().ScheduleCompute(
        harness.sim().Now() + wall, w,
        [&harness, w] { return harness.EvalBatchGradient(w); },
        [&harness, w, m, compute, wall, this](double loss) {
          harness.CommitBatchStats(w, loss);
          harness.ApplyStoredGradient(w);
          // The pairwise averaging writes both endpoints: declare it so the
          // parallel runtime invalidates any speculation on them.
          harness.sim().NotifyStateWrite(w);
          harness.sim().NotifyStateWrite(m);
          auto x_i = harness.worker(w).model->parameters();
          auto x_m = harness.worker(m).model->parameters();
          for (size_t j = 0; j < x_i.size(); ++j) {
            const double mean = 0.5 * (x_i[j] + x_m[j]);
            x_i[j] = mean;
            x_m[j] = mean;
          }
          harness.AccountIteration(w, compute, wall);
          StartIteration(harness, w);
        });
  }

  int period_;
};

}  // namespace

int main() {
  core::ExperimentConfig config;
  config.dataset = netmax::ml::Cifar10SimSpec();
  config.num_workers = 8;
  config.network = core::NetworkScenario::kHeterogeneousDynamic;
  config.profile = netmax::ml::ResNet18Profile();
  config.max_epochs = 12;
  config.monitor_period_seconds = 30.0;
  config.seed = 3;

  netmax::TablePrinter table(
      {"algorithm", "virtual_time_s", "final_loss", "test_accuracy"});
  auto add_row = [&](const core::RunResult& result) {
    table.AddRow({result.algorithm,
                  netmax::Fmt(result.total_virtual_seconds, 1),
                  netmax::Fmt(result.final_train_loss, 3),
                  netmax::Fmt(100.0 * result.final_accuracy, 1) + "%"});
  };

  // Plug the custom algorithm into the shared registry so benches and
  // scripts can resolve it by name like any built-in.
  for (int period : {2, 8}) {
    const std::string name = "lazygossip-" + std::to_string(period);
    NETMAX_CHECK_OK(netmax::algos::RegisterAlgorithm(name, [period] {
      return std::make_unique<LazyGossipAlgorithm>(period);
    }));
    auto lazy = netmax::algos::MakeAlgorithm(name);
    NETMAX_CHECK_OK(lazy.status());
    auto result = (*lazy)->Run(config);
    NETMAX_CHECK_OK(result.status());
    result->algorithm += " (every " + std::to_string(period) + ")";
    add_row(*result);
  }
  auto netmax_algo = netmax::algos::MakeAlgorithm("netmax");
  NETMAX_CHECK_OK(netmax_algo.status());
  auto netmax_result = (*netmax_algo)->Run(config);
  NETMAX_CHECK_OK(netmax_result.status());
  add_row(*netmax_result);

  std::cout << "A custom algorithm on the shared harness vs NetMax\n\n";
  table.Print(std::cout);
  std::cout << "\nCommunicating rarely is fast per iteration but pays in "
               "consensus quality;\nNetMax spends its communication budget on "
               "the links where it is cheap.\n";
  return 0;
}
