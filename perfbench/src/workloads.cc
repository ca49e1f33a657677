#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "algos/registry.h"
#include "bench/bench_util.h"
#include "net/fault_schedule.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/speedup.h"

namespace netmax::perfbench {
namespace {

// churn8: a seed-derived mix of this many slowdowns and leave/rejoin pairs,
// placed inside the fault-free run's virtual span.
constexpr int kChurnFaults = 4;
// churn8 checkpoints this many times over an uninterrupted run, and the
// crashed reference run halts half-way through it.
constexpr int kChurnCheckpoints = 12;

// netmax_speedup_x is the median Fig. 8 reading over this many seeds:
// 1, 1 + kSeedStride, ... A single reading swings with one curve crossing
// on these shortened runs (0.6x to 2.5x over 135 seeds, most near 1.05x).
constexpr int kSpeedupSeeds = 9;
constexpr uint64_t kSeedStride = 1000;

// The scale32 pool size when the machine has the cores. Two threads leave
// the 4-core reference machine spare cores for everything else running on
// it; a pool on every core measured twice as unsteady there.
constexpr int kScale32Threads = 2;

// netmax32 runs NetMax at this many seeds per pass (seed, seed +
// kSeedStride, ...), on the heterogeneous network without its dynamic slow
// link. That keeps a run's virtual length, and so its number of policy
// generations, the same for every seed (4). Under the dynamic network the
// count ranged from 4 to 7 with the seed, and the workload's wall time
// spread by 20% across seeds.
constexpr int kNetmax32Seeds = 2;

StatusOr<core::RunResult> RunOnce(const std::string& algorithm,
                                  const core::ExperimentConfig& config) {
  NETMAX_ASSIGN_OR_RETURN(const auto trainer, algos::MakeAlgorithm(algorithm));
  StatusOr<core::RunResult> result = trainer->Run(config);
  if (!result.ok()) {
    return Status(result.status().code(),
                  algorithm + ": " + result.status().message());
  }
  return result;
}

RunSpec Spec(std::string algorithm, const core::ExperimentConfig& config) {
  RunSpec spec;
  spec.label = algorithm;
  spec.algorithm = std::move(algorithm);
  spec.config = config;
  return spec;
}

core::ExperimentConfig Scale32Config(uint64_t seed) {
  core::ExperimentConfig config = Fig8Config(seed);
  config.num_workers = 32;
  config.hidden_layers = {96};
  config.dataset.num_train = 8192;
  config.max_epochs = 10;
  return config;
}

// `schedule` plus a whole-run crash at `at`, kept in time order.
net::FaultSchedule WithCrash(const net::FaultSchedule& schedule, double at) {
  net::FaultEvent crash;
  crash.kind = net::FaultKind::kCrash;
  crash.time = at;
  std::vector<net::FaultEvent> events = schedule.events();
  events.insert(std::upper_bound(events.begin(), events.end(), at,
                                 [](double time, const net::FaultEvent& event) {
                                   return time < event.time;
                                 }),
                crash);
  net::FaultSchedule out;
  for (const net::FaultEvent& event : events) out.push_back(event);
  return out;
}

Status PrepareChurn8(Workload& workload) {
  core::ExperimentConfig config = Fig8Config(workload.seed);
  config.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
  config.compress.kind = ml::CompressionKind::kInt8;
  // The faults, the cadence and the crash point scale with the run's
  // virtual length.
  NETMAX_ASSIGN_OR_RETURN(const core::RunResult fault_free,
                          RunOnce("netmax", config));
  config.faults = net::FaultSchedule::FromSeed(
      workload.seed, config.num_workers, fault_free.total_virtual_seconds,
      kChurnFaults);
  NETMAX_ASSIGN_OR_RETURN(const core::RunResult plain,
                          RunOnce("netmax", config));
  config.checkpoint_every_seconds =
      plain.total_virtual_seconds / (kChurnCheckpoints + 0.5);

  const auto new_buffer = [&workload] {
    return workload.buffers
        .emplace_back(std::make_unique<std::vector<uint8_t>>())
        .get();
  };
  std::vector<uint8_t>* crash_sink = new_buffer();

  core::ExperimentConfig crashed = config;
  crashed.faults =
      WithCrash(config.faults, 0.5 * plain.total_virtual_seconds);
  crashed.checkpoint_sink = crash_sink;
  NETMAX_ASSIGN_OR_RETURN(const core::RunResult halted,
                          RunOnce("netmax", crashed));
  if (crash_sink->empty() ||
      !(halted.total_virtual_seconds <= 0.5 * plain.total_virtual_seconds)) {
    return InternalError("churn8: the crashed run left no mid-run checkpoint");
  }

  RunSpec netmax = Spec("netmax", config);
  netmax.config.checkpoint_sink = new_buffer();
  RunSpec adpsgd = Spec("adpsgd", config);
  adpsgd.config.checkpoint_sink = new_buffer();
  RunSpec restored = Spec("netmax", config);
  restored.label = "netmax.restored";
  restored.config.checkpoint_sink = new_buffer();
  restored.config.restore_source = crash_sink;
  restored.from_scratch = false;
  restored.must_equal_run = 0;
  workload.runs = {std::move(netmax), std::move(adpsgd), std::move(restored)};
  return Status::Ok();
}

}  // namespace

uint64_t DefaultSeed(std::string_view workload) {
  return workload == "scale32" ? 5 : 1;
}

core::ExperimentConfig Fig8Config(uint64_t seed) {
  core::ExperimentConfig config = bench::PaperBaseConfig();
  config.threads = 1;
  config.seed = seed;
  return config;
}

StatusOr<double> Fig8NetmaxSpeedup() {
  std::vector<double> readings;
  for (int k = 0; k < kSpeedupSeeds; ++k) {
    const core::ExperimentConfig config =
        Fig8Config(1 + kSeedStride * static_cast<uint64_t>(k));
    std::vector<bench::NamedResult> results;
    for (const std::string_view algorithm : kFig8Algorithms) {
      bench::NamedResult& entry = results.emplace_back();
      entry.name = std::string(algorithm);
      NETMAX_ASSIGN_OR_RETURN(entry.result, RunOnce(entry.name, config));
      if (entry.result.loss_vs_time.empty()) {
        return InternalError(entry.name + ": empty Fig. 8 loss series");
      }
    }
    const double threshold = bench::CommonLossThreshold(results);
    // kFig8Algorithms ends with AD-PSGD, NetMax.
    NETMAX_ASSIGN_OR_RETURN(
        readings.emplace_back(),
        TimeToLossSpeedup(results[2].result.loss_vs_time,
                          results[3].result.loss_vs_time, threshold));
  }
  return Median(std::move(readings));
}

StatusOr<Workload> PrepareWorkload(std::string_view name, uint64_t seed,
                                   int max_threads) {
  Workload workload;
  workload.name = std::string(name);
  workload.seed = seed;
  if (name == "paper8") {
    const core::ExperimentConfig config = Fig8Config(seed);
    for (const std::string_view algorithm : kFig8Algorithms) {
      workload.runs.push_back(Spec(std::string(algorithm), config));
    }
  } else if (name == "netmax32") {
    for (int k = 0; k < kNetmax32Seeds; ++k) {
      core::ExperimentConfig config =
          Fig8Config(seed + kSeedStride * static_cast<uint64_t>(k));
      config.num_workers = 32;
      config.network = core::NetworkScenario::kHeterogeneousStatic;
      config.dataset.num_train = 8192;
      config.max_epochs = 10;
      config.monitor_period_seconds = 12.0;
      RunSpec spec = Spec("netmax", config);
      spec.label = "netmax.seed" + std::to_string(config.seed);
      workload.runs.push_back(std::move(spec));
    }
  } else if (name == "scale32") {
    workload.threads = std::clamp(max_threads, 1, kScale32Threads);
    core::ExperimentConfig config = Scale32Config(seed);
    for (const char* algorithm : {"adpsgd", "allreduce"}) {
      RunSpec spec = Spec(algorithm, config);
      NETMAX_ASSIGN_OR_RETURN(spec.reference, RunOnce(algorithm, config));
      spec.config.threads = workload.threads;
      workload.runs.push_back(std::move(spec));
    }
  } else if (name == "churn8") {
    NETMAX_RETURN_IF_ERROR(PrepareChurn8(workload));
  } else {
    return InvalidArgumentError("unknown workload '" + std::string(name) +
                                "' (expected paper8, netmax32, scale32 or "
                                "churn8)");
  }
  return workload;
}

Pass RunPass(const Workload& workload, Tracer* tracer) {
  Pass pass;
  const auto pass_start = std::chrono::steady_clock::now();
  for (const RunSpec& spec : workload.runs) {
    ScopedSpan span(tracer, "algos.run", spec.label);
    const auto start = std::chrono::steady_clock::now();
    pass.results.push_back(RunOnce(spec.algorithm, spec.config));
    pass.run_wall_s.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  }
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - pass_start)
                    .count();
  return pass;
}

std::string FirstDifference(const core::RunResult& a,
                            const core::RunResult& b) {
  const auto same_series = [](const ml::Series& x, const ml::Series& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].x != y[i].x || x[i].y != y[i].y) return false;
    }
    return true;
  };
  if (!same_series(a.loss_vs_time, b.loss_vs_time)) return "loss_vs_time";
  if (!same_series(a.loss_vs_epoch, b.loss_vs_epoch)) return "loss_vs_epoch";
  if (!same_series(a.accuracy_vs_time, b.accuracy_vs_time)) {
    return "accuracy_vs_time";
  }
  if (a.final_train_loss != b.final_train_loss) return "final_train_loss";
  if (a.final_accuracy != b.final_accuracy) return "final_accuracy";
  if (a.total_virtual_seconds != b.total_virtual_seconds) {
    return "total_virtual_seconds";
  }
  if (a.avg_epoch_cost.compute_seconds != b.avg_epoch_cost.compute_seconds ||
      a.avg_epoch_cost.communication_seconds !=
          b.avg_epoch_cost.communication_seconds) {
    return "avg_epoch_cost";
  }
  if (a.total_local_iterations != b.total_local_iterations) {
    return "total_local_iterations";
  }
  if (a.consensus_distance != b.consensus_distance) {
    return "consensus_distance";
  }
  if (a.policies_generated != b.policies_generated) {
    return "policies_generated";
  }
  if (a.messages_sent != b.messages_sent) return "messages_sent";
  if (a.bytes_sent != b.bytes_sent) return "bytes_sent";
  if (a.bytes_saved != b.bytes_saved) return "bytes_saved";
  if (a.faults_injected != b.faults_injected ||
      a.rounds_degraded != b.rounds_degraded ||
      a.peers_timed_out != b.peers_timed_out) {
    return "fault counters";
  }
  return "";
}

std::vector<std::string> CheckRun(const Workload& workload, const Pass& pass,
                                  size_t run, const Pass* first) {
  const RunSpec& spec = workload.runs[run];
  const std::string prefix = workload.name + "/" + spec.label + ": ";
  const StatusOr<core::RunResult>& got = pass.results[run];
  if (!got.ok()) return {prefix + got.status().ToString()};
  std::vector<std::string> failures;
  const core::RunResult& result = *got;
  bool finite = !result.loss_vs_time.empty() &&
                std::isfinite(result.final_train_loss) &&
                result.final_accuracy >= 0.0 && result.final_accuracy <= 1.0 &&
                result.total_local_iterations > 0;
  for (const ml::SeriesPoint& point : result.loss_vs_time) {
    finite = finite && std::isfinite(point.x) && std::isfinite(point.y);
  }
  if (!finite) failures.push_back(prefix + "non-finite or empty losses");
  const auto expect_equal = [&](const core::RunResult& want,
                                const std::string& what) {
    const std::string field = FirstDifference(want, result);
    if (!field.empty()) {
      failures.push_back(prefix + field + " differs from " + what);
    }
  };
  if (first != nullptr && first->results[run].ok()) {
    expect_equal(*first->results[run], "the first pass");
  }
  if (spec.reference.has_value()) {
    expect_equal(*spec.reference, "the threads=1 run");
  }
  if (spec.must_equal_run >= 0) {
    const auto& want = pass.results[static_cast<size_t>(spec.must_equal_run)];
    if (want.ok()) {
      expect_equal(*want, "the uninterrupted run");
    }
  }
  return failures;
}

int64_t CheckpointCount(const core::RunResult& result,
                        const core::ExperimentConfig& config) {
  if (config.checkpoint_every_seconds <= 0.0) return 0;
  return std::llround(result.total_virtual_seconds /
                      config.checkpoint_every_seconds) -
         1;
}

}  // namespace netmax::perfbench
