// Parallel-runtime determinism: for every registered algorithm the full
// RunResult — loss series, cost breakdown, consensus distance, accuracy —
// must be bit-identical between the serial dispatch (threads=1) and the
// pooled two-phase dispatch (threads=8), across every intra-worker shard
// count (the gradient is defined over a fixed leaf decomposition and tree
// reduction, ml/sharding.h), and across both event queues
// (net/event_queue.h). The thread count also picks the execution backend
// (core/execution_backend.h): serial at threads=1, speculative above. This
// is the contract that lets the benches and golden tests run at any
// {threads, shards, event queue} point.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "core/experiment.h"
#include "ml/compression.h"
#include "net/event_queue.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "determinism";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;  // enough workers for real frontier batches
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;  // several monitor ticks per run
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;  // exercise the accuracy series too
  config.seed = 13;
  return config;
}

RunResult RunWithThreads(const std::string& name, const ExperimentConfig& base,
                         int threads, int shards = 1) {
  ExperimentConfig config = base;
  config.threads = threads;
  config.shards = shards;
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

void ExpectSeriesIdentical(const ml::Series& a, const ml::Series& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << "[" << i << "].x";
    EXPECT_EQ(a[i].y, b[i].y) << label << "[" << i << "].y";
  }
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ExpectSeriesIdentical(a.loss_vs_time, b.loss_vs_time, "loss_vs_time");
  ExpectSeriesIdentical(a.loss_vs_epoch, b.loss_vs_epoch, "loss_vs_epoch");
  ExpectSeriesIdentical(a.accuracy_vs_time, b.accuracy_vs_time,
                        "accuracy_vs_time");
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
  EXPECT_EQ(a.avg_epoch_cost.compute_seconds, b.avg_epoch_cost.compute_seconds);
  EXPECT_EQ(a.avg_epoch_cost.communication_seconds,
            b.avg_epoch_cost.communication_seconds);
  EXPECT_EQ(a.total_local_iterations, b.total_local_iterations);
  EXPECT_EQ(a.consensus_distance, b.consensus_distance);
  EXPECT_EQ(a.policies_generated, b.policies_generated);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_saved, b.bytes_saved);
}

class ParallelDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminism, SerialAndEightThreadsBitIdentical) {
  const ExperimentConfig config = BaseConfig();
  const RunResult serial = RunWithThreads(GetParam(), config, 1);
  const RunResult parallel = RunWithThreads(GetParam(), config, 8);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ParallelDeterminism, ThreadShardGridBitIdentical) {
  // The full {threads, shards} grid against the fully serial unsharded
  // reference. batch 48 = six gradient leaves, so shards=2 and shards=5
  // produce genuinely different task splits (2+5 never divides 6 evenly:
  // uneven contiguous leaf ranges are exercised too).
  ExperimentConfig config = BaseConfig();
  config.batch_size = 48;
  const RunResult reference = RunWithThreads(GetParam(), config, 1, 1);
  for (const int threads : {1, 8}) {
    for (const int shards : {1, 2, 5}) {
      if (threads == 1 && shards == 1) continue;
      const RunResult run = RunWithThreads(GetParam(), config, threads,
                                           shards);
      ExpectBitIdentical(reference, run);
    }
  }
}

TEST_P(ParallelDeterminism, ThreadQueueGridBitIdentical) {
  // The full acceptance grid for the execution seams: threads (which picks
  // the backend) x shards x event queue, every point bit-identical to the
  // fully serial unsharded run on the sorted-vector ordering reference. A
  // leaner config than BaseConfig keeps the 16-point grid affordable; batch
  // 24 = three gradient leaves, so shards=2 still splits leaf ranges
  // unevenly.
  ExperimentConfig config = BaseConfig();
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.batch_size = 24;
  config.max_epochs = 1;
  config.event_queue = net::EventQueueKind::kSortedVector;
  const RunResult reference = RunWithThreads(GetParam(), config, 1, 1);
  for (const net::EventQueueKind queue :
       {net::EventQueueKind::kSortedVector, net::EventQueueKind::kCalendar}) {
    config.event_queue = queue;
    for (const int threads : {1, 2, 4, 8}) {
      for (const int shards : {1, 2}) {
        const RunResult run = RunWithThreads(GetParam(), config, threads,
                                             shards);
        SCOPED_TRACE(std::string("queue=") + run.event_queue +
                     " backend=" + run.backend +
                     " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        EXPECT_EQ(run.backend, threads == 1 ? "serial" : "speculative");
        ExpectBitIdentical(reference, run);
        EXPECT_EQ(run.computes_recomputed, 0);
      }
    }
  }
}

// Runs `config` (which carries a fault schedule) under both dead-peer
// policies: serially as the reference and at three more {threads, shards,
// event queue} points, every one bit-identical to the reference — fault
// counters included. Returns the serial references, wait first.
std::vector<RunResult> ExpectFaultRunsBitIdentical(const std::string& name,
                                                   ExperimentConfig config) {
  config.peer_timeout_seconds = 1.0;
  config.peer_poll_seconds = 0.4;
  struct ExecutionPoint {
    int threads;
    int shards;
    net::EventQueueKind queue;
  };
  const ExecutionPoint points[] = {
      {8, 1, net::EventQueueKind::kCalendar},
      {8, 2, net::EventQueueKind::kCalendar},
      {4, 1, net::EventQueueKind::kSortedVector},
  };
  std::vector<RunResult> references;
  for (const core::PeerPolicy policy :
       {core::PeerPolicy::kWait, core::PeerPolicy::kTimeoutAndContinue}) {
    config.peer_policy = policy;
    RunResult reference = RunWithThreads(name, config, 1, 1);
    // The schedule must actually fire (all three scripted events).
    EXPECT_EQ(reference.faults_injected, 3);
    for (const ExecutionPoint& point : points) {
      ExperimentConfig point_config = config;
      point_config.event_queue = point.queue;
      SCOPED_TRACE("policy=" + std::string(core::PeerPolicyName(policy)) +
                   " threads=" + std::to_string(point.threads) +
                   " shards=" + std::to_string(point.shards) + " queue=" +
                   std::string(net::EventQueueKindName(point.queue)));
      const RunResult run =
          RunWithThreads(name, point_config, point.threads, point.shards);
      ExpectBitIdentical(reference, run);
      EXPECT_EQ(reference.faults_injected, run.faults_injected);
      EXPECT_EQ(reference.rounds_degraded, run.rounds_degraded);
      EXPECT_EQ(reference.peers_timed_out, run.peers_timed_out);
    }
    references.push_back(std::move(reference));
  }
  return references;
}

TEST_P(ParallelDeterminism, FaultScheduleBitIdenticalAcrossExecutionPoints) {
  // Fault injection rides the simulator's ordinary (time, sequence) event
  // scheduling, so a faulted run must be exactly as reproducible as a
  // fault-free one: same bits — including the fault counters themselves —
  // on every thread count, shard split, and event queue, under both dead-peer
  // policies. The first schedule is a straggler plus a leave/rejoin whose
  // times land inside every engine's run at a lean scale (the fastest engine
  // finishes its gradient evaluations within a fraction of a virtual
  // second), with a dead window (1.1s) that outlives the 1-second deadline.
  ExperimentConfig lean = BaseConfig();
  lean.dataset.num_train = 256;
  lean.dataset.num_test = 64;
  lean.batch_size = 24;
  lean.max_epochs = 1;
  auto faults =
      net::FaultSchedule::Parse("slow@0.05+0.5x4:w1;leave@0.1:w2;join@1.2:w2");
  NETMAX_CHECK_OK(faults.status());
  lean.faults = *faults;
  ExpectFaultRunsBitIdentical(GetParam(), lean);

  // The second schedule keeps worker 2 dead for 11 virtual seconds of a
  // full-size run, long enough that the dead-peer paths run rather than
  // being skipped: a pull engine draws the dead peer (and, under timeout,
  // gives up on it), and a synchronous round engine blocks on it or drops
  // it from the membership.
  ExperimentConfig full = BaseConfig();
  faults = net::FaultSchedule::Parse("slow@0.5+2x4:w1;leave@1:w2;join@12:w2");
  NETMAX_CHECK_OK(faults.status());
  full.faults = *faults;
  const std::vector<RunResult> references =
      ExpectFaultRunsBitIdentical(GetParam(), full);
  const std::string& name = GetParam();
  const bool pull_engine = name == "netmax" || name == "adpsgd" ||
                           name == "adpsgd+monitor" || name == "saps";
  const bool round_engine = name == "allreduce" || name == "ps-sync";
  if (pull_engine || round_engine) {
    EXPECT_GT(references[0].rounds_degraded, 0) << "policy=wait";
    EXPECT_GT(references[1].rounds_degraded, 0) << "policy=timeout";
  }
  if (pull_engine) {
    EXPECT_GT(references[1].peers_timed_out, 0);
  }
}

TEST_P(ParallelDeterminism, CompressionBitIdenticalAcrossExecutionPoints) {
  // Gradient compression draws from the committing worker's RNG stream
  // (int8) and reads the per-worker communication-round counter (layerwise),
  // both of which only move in commit contexts — so a compressed run must be
  // exactly as reproducible as an uncompressed one across thread counts
  // (and so backends), shard splits, and event queues. One
  // variant per encoding family; the reference is the fully serial unsharded
  // run of the same spec.
  ExperimentConfig config = BaseConfig();
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.batch_size = 24;
  config.max_epochs = 1;

  struct ExecutionPoint {
    int threads;
    int shards;
    net::EventQueueKind queue;
  };
  const ExecutionPoint points[] = {
      {8, 1, net::EventQueueKind::kSortedVector},
      {8, 2, net::EventQueueKind::kCalendar},
      {2, 1, net::EventQueueKind::kCalendar},
      {1, 1, net::EventQueueKind::kSortedVector},
  };
  for (const char* spec_text : {"topk:0.1", "int8", "layerwise:2"}) {
    auto spec = ml::ParseCompressionSpec(spec_text);
    NETMAX_CHECK_OK(spec.status());
    config.compress = *spec;
    const RunResult reference = RunWithThreads(GetParam(), config, 1, 1);
    // Compression must actually bite: bytes came off the wire.
    EXPECT_GT(reference.messages_sent, 0) << spec_text;
    EXPECT_GT(reference.bytes_saved, 0) << spec_text;
    for (const ExecutionPoint& point : points) {
      ExperimentConfig point_config = config;
      point_config.event_queue = point.queue;
      SCOPED_TRACE(std::string("compress=") + spec_text +
                   " threads=" + std::to_string(point.threads) +
                   " shards=" + std::to_string(point.shards) + " queue=" +
                   std::string(net::EventQueueKindName(point.queue)));
      const RunResult run = RunWithThreads(GetParam(), point_config,
                                           point.threads, point.shards);
      ExpectBitIdentical(reference, run);
    }
  }
}

TEST_P(ParallelDeterminism, UncompressedRunsChargeBaselineBytes) {
  // Without compression every send charges exactly the dense f32 baseline:
  // bytes_saved is identically zero (this is what lets the diagnostics table
  // and the golden traces stay byte-identical to their pre-compression
  // shape), while any communicating engine still accounts real messages.
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  const RunResult run = RunWithThreads(GetParam(), config, 8);
  EXPECT_EQ(run.bytes_saved, 0);
  EXPECT_GT(run.messages_sent, 0);
  EXPECT_GT(run.bytes_sent, 0);
}

TEST_P(ParallelDeterminism, FaultFreeRunsReportZeroFaultCounters) {
  // The fault-free path schedules no harness events and touches no extra
  // RNG: the counters stay zero and (by the fault-free golden traces) the
  // bits stay identical to the pre-fault-subsystem pins.
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  const RunResult run = RunWithThreads(GetParam(), config, 8);
  EXPECT_EQ(run.faults_injected, 0);
  EXPECT_EQ(run.rounds_degraded, 0);
  EXPECT_EQ(run.peers_timed_out, 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ParallelDeterminism,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

TEST(ParallelDeterminismTest, TimeoutPolicyActuallyExpiresDeadlines) {
  // Under timeout-and-continue a chain-structured engine whose pull parks on
  // a dead peer must give up after peer_timeout_seconds and press on: the
  // run records real expirations, and its bits still agree between serial
  // and pooled dispatch (the expiry is a virtual-time event like any other).
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  auto faults = net::FaultSchedule::Parse("leave@0.3:w2;join@4:w2");
  NETMAX_CHECK_OK(faults.status());
  config.faults = *faults;
  config.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
  config.peer_timeout_seconds = 1.0;
  config.peer_poll_seconds = 0.4;
  const RunResult serial = RunWithThreads("netmax", config, 1);
  EXPECT_GT(serial.peers_timed_out, 0);
  ExpectBitIdentical(serial, RunWithThreads("netmax", config, 8));

  // The same schedule under the wait policy never expires a deadline: the
  // parked pulls re-probe until the rejoin.
  config.peer_policy = core::PeerPolicy::kWait;
  const RunResult waited = RunWithThreads("netmax", config, 1);
  EXPECT_EQ(waited.peers_timed_out, 0);
  EXPECT_GT(waited.rounds_degraded, 0);
}

TEST(ParallelDeterminismTest, DynamicHeterogeneousNetworkMatchesToo) {
  // The dynamic-slowdown scenario re-draws link speeds on a timer (an extra
  // stream of plain events interleaved with compute events).
  ExperimentConfig config = BaseConfig();
  config.network = NetworkScenario::kHeterogeneousDynamic;
  config.slowdown_period_seconds = 20.0;
  for (const std::string name : {"netmax", "adpsgd", "gossip"}) {
    const RunResult serial = RunWithThreads(name, config, 1);
    const RunResult parallel = RunWithThreads(name, config, 8);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, ParallelRunsActuallySpeculate) {
  // Guard against the parallel path silently degrading to serial dispatch:
  // every engine must put real compute halves on the pool when threads > 1.
  const ExperimentConfig config = BaseConfig();
  for (const std::string& name : algos::AlgorithmNames()) {
    const RunResult serial = RunWithThreads(name, config, 1);
    const RunResult parallel = RunWithThreads(name, config, 8);
    EXPECT_EQ(serial.backend, "serial") << name;  // threads=1 degrades
    EXPECT_EQ(parallel.backend, "speculative") << name;
    EXPECT_EQ(serial.computes_speculated, 0) << name;
    EXPECT_GT(parallel.parallel_batches, 0) << name;
    EXPECT_GT(parallel.computes_speculated, 0) << name;
    // Invalidations are expected (consensus commits dirty their peers), but
    // every one must resolve through the second-pass re-dispatch — the
    // inline fallback is defensive only.
    EXPECT_EQ(parallel.computes_recomputed, 0) << name;
  }
}

TEST(ParallelDeterminismTest, ConsensusInvalidationsAreRedispatched) {
  // NetMax's symmetric consensus dirties the pulled peer, whose compute is
  // usually speculated: the run must actually exercise the second pass.
  const ExperimentConfig config = BaseConfig();
  const RunResult parallel = RunWithThreads("netmax", config, 8);
  EXPECT_GT(parallel.computes_redispatched, 0);
  EXPECT_EQ(parallel.computes_recomputed, 0);
}

TEST(ParallelDeterminismTest, ThreadCountsAgreeAmongThemselves) {
  // 2, 3, and 8 threads all produce the same bits (not just 1 vs 8): the
  // frontier size and speculation pattern differ, the results must not.
  const ExperimentConfig config = BaseConfig();
  const RunResult two = RunWithThreads("netmax", config, 2);
  const RunResult three = RunWithThreads("netmax", config, 3);
  const RunResult eight = RunWithThreads("netmax", config, 8);
  ExpectBitIdentical(two, three);
  ExpectBitIdentical(two, eight);
}

}  // namespace
}  // namespace netmax
