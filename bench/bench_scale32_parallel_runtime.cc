// Scaling headroom demo for the parallel simulation runtime: a 32-worker
// heterogeneous-dynamic scenario (8 servers, dynamic slow links) training a
// wider MLP than the paper-scale benches. Each algorithm runs the identical
// experiment twice — serial dispatch (threads=1) and the pooled speculative
// frontier dispatch with intra-worker gradient sharding — and the bench
// reports real wall-clock for both plus the speculation / re-dispatch
// counters, after verifying the runs are bit-identical. Virtual-time results
// never depend on the thread or shard choice; only the real seconds columns
// do (expect ~1x on a single-core machine; on multi-core hardware the pooled
// leg scales with cores).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table.h"

namespace netmax {
namespace {

core::ExperimentConfig Scale32Config() {
  core::ExperimentConfig config = bench::PaperBaseConfig();
  config.num_workers = 32;  // 8 simulated servers (SpreadOverServers)
  config.hidden_layers = {96};  // ~3x the paper-scale proxy model
  config.dataset.num_train = 8192;
  config.dataset.num_test = 512;
  config.max_epochs = 10;
  config.monitor_period_seconds = 24.0;
  config.seed = 5;
  return config;
}

struct TimedRun {
  core::RunResult result;
  double wall_seconds = 0.0;
};

StatusOr<TimedRun> RunWith(const std::string& name,
                           const core::ExperimentConfig& base, int threads,
                           int shards) {
  core::ExperimentConfig config = base;
  config.threads = threads;
  config.shards = shards;
  NETMAX_ASSIGN_OR_RETURN(const auto algorithm, algos::MakeAlgorithm(name));
  const auto start = std::chrono::steady_clock::now();
  auto result = algorithm->Run(config);
  const auto stop = std::chrono::steady_clock::now();
  if (!result.ok()) {
    return Status(result.status().code(),
                  name + ": " + result.status().message());
  }
  return TimedRun{std::move(result.value()),
                  std::chrono::duration<double>(stop - start).count()};
}

void CheckBitIdentical(const std::string& name, const core::RunResult& a,
                       const core::RunResult& b) {
  NETMAX_CHECK_EQ(a.loss_vs_time.size(), b.loss_vs_time.size()) << name;
  for (size_t i = 0; i < a.loss_vs_time.size(); ++i) {
    NETMAX_CHECK_EQ(a.loss_vs_time[i].x, b.loss_vs_time[i].x) << name;
    NETMAX_CHECK_EQ(a.loss_vs_time[i].y, b.loss_vs_time[i].y) << name;
  }
  NETMAX_CHECK_EQ(a.final_train_loss, b.final_train_loss) << name;
  NETMAX_CHECK_EQ(a.final_accuracy, b.final_accuracy) << name;
  NETMAX_CHECK_EQ(a.total_virtual_seconds, b.total_virtual_seconds) << name;
  NETMAX_CHECK_EQ(a.consensus_distance, b.consensus_distance) << name;
}

Status Run() {
  core::ExperimentConfig config = Scale32Config();
  bench::MaybeApplySmoke(config);
  // --threads=N pins the pooled leg; otherwise one thread per hardware
  // core, floored at 2 so the speculative backend is exercised (and measured
  // honestly) even on a single-core machine. --shards=N pins its shard bound
  // (default 4 = the leaf count of the batch-32 scenario, the maximum nested
  // parallelism available per worker).
  const unsigned hw = std::thread::hardware_concurrency();
  const int parallel_threads = bench::ThreadsOverride() > 0
                                   ? bench::ThreadsOverride()
                                   : std::max(2, static_cast<int>(hw));
  // >= 0 so an explicit --shards=0 keeps its documented meaning (harness auto
  // resolution) instead of being silently pinned to the bench default.
  const int sharded_shards =
      bench::ShardsOverride() >= 0 ? bench::ShardsOverride() : 4;

  TablePrinter table({"algorithm", "virtual_s", "serial_wall_s",
                      "speculative_wall_s", "spec_speedup", "speculated",
                      "redispatched"});
  for (const std::string name : {"netmax", "adpsgd", "allreduce", "gossip"}) {
    NETMAX_ASSIGN_OR_RETURN(
        const TimedRun serial,
        RunWith(name, config, /*threads=*/1, /*shards=*/1));
    NETMAX_ASSIGN_OR_RETURN(
        const TimedRun speculative,
        RunWith(name, config, parallel_threads, sharded_shards));
    CheckBitIdentical(name, serial.result, speculative.result);
    table.AddRow(
        {serial.result.algorithm,
         Fmt(serial.result.total_virtual_seconds, 1),
         Fmt(serial.wall_seconds, 3), Fmt(speculative.wall_seconds, 3),
         Fmt(speculative.wall_seconds > 0.0
                 ? serial.wall_seconds / speculative.wall_seconds
                 : 0.0,
             2),
         std::to_string(speculative.result.computes_speculated),
         std::to_string(speculative.result.computes_redispatched)});
  }
  std::cout << "\n== Scale-32 parallel runtime (32 workers, hidden=96; "
               "serial vs speculative+sharded; results verified "
               "bit-identical) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "Scale-32 parallel runtime");
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
