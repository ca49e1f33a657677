// Robustness panels for the deterministic fault-injection subsystem: every
// registered algorithm runs under scripted worker churn, stragglers, and a
// mixed schedule, under both dead-peer policies, and the table reports how
// each one degraded (fault counters are simulation output — bit-identical
// across backends, threads, and shards, so they print to stdout like any
// other result).
//
// The bench finishes with the crash-restore self-check: for every algorithm,
// a run killed by a crash@T fault and restored from its newest periodic
// (--checkpoint-every style) checkpoint must finish bit-identical to the run
// that never crashed. Any mismatch fails the bench with a non-zero exit, so
// CI can gate on it directly.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "bench/bench_util.h"
#include "common/status.h"
#include "common/table.h"
#include "core/experiment.h"
#include "ml/compression.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

struct FaultPanel {
  const char* name;
  const char* spec;
};

// Scenario times sit inside the first fractions of a virtual second: the
// fastest engine (push-gossip, whose iteration wall is compute-only)
// finishes the --smoke corpus's gradient evaluations within ~0.25 virtual
// seconds, so only sub-second fault times land mid-training for every
// algorithm. Dead windows exceed the 1-second peer deadline below so the
// timeout panels actually expire it.
constexpr FaultPanel kPanels[] = {
    {"churn", "leave@0.1:w2;join@1.5:w2;leave@2:w5;join@10:w5"},
    {"stragglers", "slow@0.05+0.6x4:w1;slow@0.1+1x8:w3"},
    {"mixed", "slow@0.05+0.5x4:w1;leave@0.15:w2;join@2:w2"},
};

// The crash-restore pair: the crashed run is a churn/straggler mix plus a
// crash@0.6, the uninterrupted reference is the same schedule minus the
// crash. Both arm the 0.25-second periodic checkpoint cadence, so when the
// crash halts its run the newest checkpoint holds virtual time 0.5.
constexpr char kUninterruptedSpec[] =
    "slow@0.05+0.5x4:w1;leave@0.1:w2;join@1.2:w2";
constexpr char kCrashedSpec[] =
    "slow@0.05+0.5x4:w1;leave@0.1:w2;crash@0.6;join@1.2:w2";
constexpr double kCadenceSeconds = 0.25;

core::ExperimentConfig FaultBaseConfig() {
  core::ExperimentConfig config = bench::PaperBaseConfig();
  // Static heterogeneous network: the dynamic scenario re-draws its own slow
  // links, which would blur which stragglers the schedule injected.
  config.network = core::NetworkScenario::kHeterogeneousStatic;
  // A deadline short enough to expire inside the scenario windows, so the
  // timeout-and-continue panels actually exercise the degraded paths (the
  // 30s default outlives a --smoke run).
  config.peer_timeout_seconds = 1.0;
  config.peer_poll_seconds = 0.4;
  return config;
}

Status RunPolicyPanels(core::PeerPolicy policy) {
  for (const FaultPanel& panel : kPanels) {
    core::ExperimentConfig config = FaultBaseConfig();
    NETMAX_ASSIGN_OR_RETURN(config.faults,
                            net::FaultSchedule::Parse(panel.spec));
    config.peer_policy = policy;
    NETMAX_ASSIGN_OR_RETURN(
        const std::vector<bench::NamedResult> results,
        bench::RunAlgorithms(algos::AlgorithmNames(), config));
    TablePrinter table({"algorithm", "final_loss", "total_time_s",
                        "iterations", "faults", "degraded", "timeouts"});
    for (const bench::NamedResult& entry : results) {
      const core::RunResult& r = entry.result;
      table.AddRow({entry.name, Fmt(r.final_train_loss, 4),
                    Fmt(r.total_virtual_seconds, 1),
                    std::to_string(r.total_local_iterations),
                    std::to_string(r.faults_injected),
                    std::to_string(r.rounds_degraded),
                    std::to_string(r.peers_timed_out)});
    }
    const std::string title =
        std::string("Fault panel: ") + panel.name + " (policy=" +
        std::string(core::PeerPolicyName(policy)) + ", faults=" + panel.spec +
        ")";
    std::cout << "\n== " << title << " ==\n";
    table.Print(std::cout);
    table.PrintCsv(std::cout, title);
  }
  return Status::Ok();
}

// Seed-derived sweep: the scripted panels above pin three hand-written
// scenarios; this grid instead draws FaultSchedule::FromSeed churn/straggler
// mixes across several seeds and two intensities, under both dead-peer
// policies, and reports each run's degradation frontier (how far loss,
// degraded rounds, and timeouts move as the injected fault count grows).
// This is the panel behind `--faults=seed:K`: one row here is exactly what
// that flag injects into a full bench run, so the grid doubles as a map of
// which seeds produce mild vs hostile schedules.
constexpr uint64_t kSweepSeeds[] = {1, 2, 3, 5};
constexpr int kSweepCounts[] = {2, 6};
// Same horizon the --faults=seed:K flag uses (bench_util.cc), so a grid row
// reproduces the flag's schedule exactly.
constexpr double kSweepHorizonSeconds = 40.0;

Status RunSeedSweep() {
  // Three representative engines keep the 4 seeds x 2 intensities x 2
  // policies grid affordable: the paper's system, its asynchronous baseline,
  // and the synchronous collective most exposed to stragglers.
  const std::vector<std::string> algorithms = {"netmax", "adpsgd",
                                               "allreduce"};
  for (const core::PeerPolicy policy :
       {core::PeerPolicy::kWait, core::PeerPolicy::kTimeoutAndContinue}) {
    TablePrinter table({"seed", "faults", "algorithm", "final_loss",
                        "total_time_s", "injected", "degraded", "timeouts"});
    for (const uint64_t seed : kSweepSeeds) {
      for (const int count : kSweepCounts) {
        core::ExperimentConfig config = FaultBaseConfig();
        config.faults = net::FaultSchedule::FromSeed(
            seed, config.num_workers, kSweepHorizonSeconds, count);
        config.peer_policy = policy;
        NETMAX_ASSIGN_OR_RETURN(
            const std::vector<bench::NamedResult> results,
            bench::RunAlgorithms(algorithms, config));
        for (const bench::NamedResult& entry : results) {
          const core::RunResult& r = entry.result;
          table.AddRow({std::to_string(seed), std::to_string(count),
                        entry.name, Fmt(r.final_train_loss, 4),
                        Fmt(r.total_virtual_seconds, 1),
                        std::to_string(r.faults_injected),
                        std::to_string(r.rounds_degraded),
                        std::to_string(r.peers_timed_out)});
        }
      }
    }
    const std::string title =
        std::string("Seed-derived fault sweep (policy=") +
        std::string(core::PeerPolicyName(policy)) + ")";
    std::cout << "\n== " << title << " ==\n";
    table.Print(std::cout);
    table.PrintCsv(std::cout, title);
  }
  return Status::Ok();
}

// Compression x fault-seed grid: does a sparser payload move the degradation
// frontier under churn? Each row pairs one compressor from the PR-9 family
// with one seed-derived schedule at the hostile intensity and reports the
// same frontier counters as the seed sweep plus the wire columns. Two
// readings: within one spec, how much the frontier counters move across
// seeds (the churn sensitivity of that payload), and within one seed, how
// far a lossy spec's final_loss sits from the "none" row — that delta is the
// compressor's ordinary convergence cost, and the panel shows whether churn
// widens it (it should not: compression is applied identically on every
// gossip edge, faulted or not). This is the ROADMAP item 2 follow-on.
constexpr const char* kCompressionSpecs[] = {"none", "topk:0.1", "int8",
                                             "layerwise:2"};

Status RunCompressionSweep() {
  // Two engines bound the panel: the paper's system and the gossip baseline
  // whose payloads dominate its wire bill. The hostile intensity (6 faults)
  // under timeout-and-continue exercises compression on the degraded paths
  // (rounds that drop a timed-out peer still compress the survivors'
  // payloads).
  const std::vector<std::string> algorithms = {"netmax", "adpsgd"};
  TablePrinter table({"compress", "seed", "algorithm", "final_loss",
                      "injected", "degraded", "timeouts", "bytes_sent",
                      "bytes_saved"});
  for (const char* spec_text : kCompressionSpecs) {
    NETMAX_ASSIGN_OR_RETURN(const ml::CompressionSpec spec,
                            ml::ParseCompressionSpec(spec_text));
    for (const uint64_t seed : kSweepSeeds) {
      core::ExperimentConfig config = FaultBaseConfig();
      config.compress = spec;
      config.faults = net::FaultSchedule::FromSeed(
          seed, config.num_workers, kSweepHorizonSeconds, kSweepCounts[1]);
      config.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
      NETMAX_ASSIGN_OR_RETURN(
          const std::vector<bench::NamedResult> results,
          bench::RunAlgorithms(algorithms, config));
      for (const bench::NamedResult& entry : results) {
        const core::RunResult& r = entry.result;
        table.AddRow({spec_text, std::to_string(seed), entry.name,
                      Fmt(r.final_train_loss, 4),
                      std::to_string(r.faults_injected),
                      std::to_string(r.rounds_degraded),
                      std::to_string(r.peers_timed_out),
                      std::to_string(r.bytes_sent),
                      std::to_string(r.bytes_saved)});
      }
    }
  }
  const std::string title =
      std::string("Compression x fault-seed sweep (faults=seed:") +
      std::to_string(kSweepCounts[1]) + ", policy=timeout)";
  std::cout << "\n== " << title << " ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, title);
  return Status::Ok();
}

// Status-returning twin of the determinism tests' ExpectBitIdentical: the
// deterministic subset of RunResult, compared bit-for-bit.
Status CompareSeries(const std::string& run, const char* label,
                     const ml::Series& a, const ml::Series& b) {
  if (a.size() != b.size()) {
    return InternalError(run + ": " + label + " length mismatch");
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) {
      return InternalError(run + ": " + label + " diverges at point " +
                           std::to_string(i));
    }
  }
  return Status::Ok();
}

Status CompareResults(const std::string& run, const core::RunResult& a,
                      const core::RunResult& b) {
  NETMAX_RETURN_IF_ERROR(
      CompareSeries(run, "loss_vs_time", a.loss_vs_time, b.loss_vs_time));
  NETMAX_RETURN_IF_ERROR(
      CompareSeries(run, "loss_vs_epoch", a.loss_vs_epoch, b.loss_vs_epoch));
  NETMAX_RETURN_IF_ERROR(CompareSeries(run, "accuracy_vs_time",
                                       a.accuracy_vs_time,
                                       b.accuracy_vs_time));
  if (a.final_train_loss != b.final_train_loss ||
      a.final_accuracy != b.final_accuracy ||
      a.total_virtual_seconds != b.total_virtual_seconds ||
      a.total_local_iterations != b.total_local_iterations ||
      a.consensus_distance != b.consensus_distance ||
      a.policies_generated != b.policies_generated ||
      a.faults_injected != b.faults_injected ||
      a.rounds_degraded != b.rounds_degraded ||
      a.peers_timed_out != b.peers_timed_out) {
    return InternalError(run + ": scalar results diverge");
  }
  return Status::Ok();
}

StatusOr<core::RunResult> RunOnce(const std::string& name,
                                  const core::ExperimentConfig& config) {
  NETMAX_ASSIGN_OR_RETURN(const auto algorithm, algos::MakeAlgorithm(name));
  return algorithm->Run(config);
}

Status CheckCrashRestore() {
  TablePrinter table({"algorithm", "crashed_at_s", "restored_from_s",
                      "verdict"});
  for (const std::string& name : algos::AlgorithmNames()) {
    core::ExperimentConfig base = FaultBaseConfig();
    bench::MaybeApplySmoke(base);
    // Serial dispatch keeps the 3x nine-algorithm sweep cheap; the
    // determinism suite separately proves every {threads, shards, queue}
    // point produces these same bits.
    base.threads = bench::ThreadsOverride() >= 0 ? bench::ThreadsOverride()
                                                 : 1;
    base.checkpoint_every_seconds = kCadenceSeconds;

    // Uninterrupted reference: same schedule minus the crash, same cadence
    // (the cadence ticks consume virtual-time events, so the reference must
    // tick too).
    std::vector<uint8_t> reference_sink;
    core::ExperimentConfig uninterrupted = base;
    NETMAX_ASSIGN_OR_RETURN(uninterrupted.faults,
                            net::FaultSchedule::Parse(kUninterruptedSpec));
    uninterrupted.checkpoint_sink = &reference_sink;
    NETMAX_ASSIGN_OR_RETURN(const core::RunResult want,
                            RunOnce(name, uninterrupted));

    // Crashed run: halts at the crash time; the sink holds the newest
    // periodic checkpoint written before it.
    std::vector<uint8_t> crash_sink;
    core::ExperimentConfig crashed = base;
    NETMAX_ASSIGN_OR_RETURN(crashed.faults,
                            net::FaultSchedule::Parse(kCrashedSpec));
    crashed.checkpoint_sink = &crash_sink;
    NETMAX_ASSIGN_OR_RETURN(const core::RunResult halted,
                            RunOnce(name, crashed));
    if (crash_sink.empty()) {
      return InternalError(name +
                           ": crashed run wrote no periodic checkpoint");
    }

    // Restore and finish: must reproduce the uninterrupted run's bits.
    std::vector<uint8_t> restored_sink;
    core::ExperimentConfig restored = uninterrupted;
    restored.checkpoint_sink = &restored_sink;
    restored.restore_source = &crash_sink;
    NETMAX_ASSIGN_OR_RETURN(const core::RunResult got,
                            RunOnce(name, restored));
    NETMAX_RETURN_IF_ERROR(CompareResults(name, want, got));
    table.AddRow({name, Fmt(halted.total_virtual_seconds, 1),
                  Fmt(kCadenceSeconds * 2.0, 1), "bit-identical"});
  }
  std::cout << "\n== Crash-restore recovery (crash@0.6, checkpoint every "
            << Fmt(kCadenceSeconds, 1) << "s; restored run vs uninterrupted "
            << "run) ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "crash_restore");
  return Status::Ok();
}

Status RunBench() {
  NETMAX_RETURN_IF_ERROR(RunPolicyPanels(core::PeerPolicy::kWait));
  NETMAX_RETURN_IF_ERROR(
      RunPolicyPanels(core::PeerPolicy::kTimeoutAndContinue));
  NETMAX_RETURN_IF_ERROR(RunSeedSweep());
  NETMAX_RETURN_IF_ERROR(RunCompressionSweep());
  return CheckCrashRestore();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv,
                                  [] { return netmax::RunBench(); });
}
