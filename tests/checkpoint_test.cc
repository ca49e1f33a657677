// Bit-exact checkpoint/restore (core/checkpoint.h): for every registered
// algorithm on both dispatch paths (serial and pooled), a run that (a)
// checkpoints mid-run and keeps going, or (b) restores from that checkpoint
// and finishes, must produce a RunResult bit-identical to the uninterrupted
// run. Also covers the
// wire-format error paths: truncation, corruption, fingerprint mismatches,
// and the file round trip.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "common/serialize.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "net/event_queue.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

// Lean but representative: heterogeneous static network, monitor ticks, an
// accuracy series, and enough iterations that the checkpoint lands between
// events with a non-trivial queue.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "checkpoint";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;
  config.seed = 13;
  config.threads = 1;
  return config;
}

RunResult MustRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

Status TryRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  return (*algorithm)->Run(config).status();
}

void ExpectSeriesIdentical(const ml::Series& a, const ml::Series& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << "[" << i << "].x";
    EXPECT_EQ(a[i].y, b[i].y) << label << "[" << i << "].y";
  }
}

// The simulation-output subset of RunResult (exec-stat counters depend on the
// backend by design and are excluded, as in parallel_determinism_test).
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
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::string> {};

// The acceptance grid: for each algorithm, each backend's checkpointed run
// and its restored continuation must match the uninterrupted serial
// reference bit for bit.
TEST_P(CheckpointRoundTrip, AllBackendsBitIdentical) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);
  const double checkpoint_at = 0.5 * reference.total_virtual_seconds;

  // threads=1 runs the serial backend, threads=8 the speculative one.
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    std::vector<uint8_t> checkpoint;
    ExperimentConfig with_checkpoint = base;
    with_checkpoint.threads = threads;
    with_checkpoint.checkpoint_at_seconds = checkpoint_at;
    with_checkpoint.checkpoint_sink = &checkpoint;
    const RunResult checkpointed = MustRun(GetParam(), with_checkpoint);
    ExpectBitIdentical(reference, checkpointed);
    ASSERT_FALSE(checkpoint.empty());

    ExperimentConfig resumed = base;
    resumed.threads = threads;
    resumed.restore_source = &checkpoint;
    const RunResult restored = MustRun(GetParam(), resumed);
    ExpectBitIdentical(reference, restored);
  }
}

// A checkpoint written by serial dispatch restores bit-identically on the
// pooled path and under the sorted-vector queue: the bytes carry no
// execution-strategy state.
TEST_P(CheckpointRoundTrip, CheckpointsAreBackendPortable) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);
  ASSERT_FALSE(checkpoint.empty());

  ExperimentConfig resumed = base;
  resumed.threads = 8;
  resumed.restore_source = &checkpoint;
  const RunResult restored = MustRun(GetParam(), resumed);
  EXPECT_EQ(restored.backend, "speculative");
  ExpectBitIdentical(reference, restored);

  resumed.event_queue = net::EventQueueKind::kSortedVector;
  ExpectBitIdentical(reference, MustRun(GetParam(), resumed));
}

// Cross-config restore: a checkpoint written on the pooled path under a full
// thread pool restores bit-identically under a smaller sharded pool
// and back under serial. The checkpoint fingerprint covers the simulation
// config only — threads and shards are real-machine choices — so both
// restores must accept the bytes and finish on the reference's bits.
TEST_P(CheckpointRoundTrip, RestoresAcrossPoolSizesAndSerial) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);

  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.threads = 8;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);
  ASSERT_FALSE(checkpoint.empty());

  ExperimentConfig under_small_pool = base;
  under_small_pool.threads = 2;
  under_small_pool.shards = 2;
  under_small_pool.restore_source = &checkpoint;
  const RunResult pool_restored = MustRun(GetParam(), under_small_pool);
  EXPECT_EQ(pool_restored.backend, "speculative");
  ExpectBitIdentical(reference, pool_restored);

  ExperimentConfig under_serial = base;
  under_serial.restore_source = &checkpoint;
  const RunResult serial_restored = MustRun(GetParam(), under_serial);
  EXPECT_EQ(serial_restored.backend, "serial");
  ExpectBitIdentical(reference, serial_restored);
}

// The crash-recovery contract: a run killed by a crash@T fault, restored
// from the newest periodic (checkpoint_every_seconds) checkpoint, finishes
// bit-identical to the run that never crashed — for every algorithm. The
// uninterrupted reference runs the same cadence (ticks are virtual-time
// events, so the reference must consume them too), and the cadence itself
// must be transparent: the uninterrupted cadenced run matches the plain run.
TEST_P(CheckpointRoundTrip, CrashRestoreFromPeriodicCheckpoint) {
  const ExperimentConfig base = BaseConfig();
  const RunResult plain = MustRun(GetParam(), base);
  ASSERT_GT(plain.total_virtual_seconds, 0.0);
  const double cadence = 0.2 * plain.total_virtual_seconds;
  const double crash_at = 0.5 * plain.total_virtual_seconds;

  // Uninterrupted reference, cadence armed. The cadence is transparent to
  // training — same losses, same iterations — but it owns its tick events:
  // the final tick can stretch total_virtual_seconds past the last real
  // event, so the clock is compared only between the cadenced runs below.
  std::vector<uint8_t> reference_sink;
  ExperimentConfig uninterrupted = base;
  uninterrupted.checkpoint_every_seconds = cadence;
  uninterrupted.checkpoint_sink = &reference_sink;
  const RunResult want = MustRun(GetParam(), uninterrupted);
  ExpectSeriesIdentical(plain.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  ExpectSeriesIdentical(plain.loss_vs_epoch, want.loss_vs_epoch,
                        "loss_vs_epoch");
  EXPECT_EQ(plain.final_train_loss, want.final_train_loss);
  EXPECT_EQ(plain.total_local_iterations, want.total_local_iterations);
  ASSERT_FALSE(reference_sink.empty());

  // Crashed run: halts at crash_at; the sink keeps the newest periodic
  // checkpoint written before the crash.
  std::vector<uint8_t> crash_sink;
  ExperimentConfig crashed = uninterrupted;
  net::FaultEvent crash;
  crash.kind = net::FaultKind::kCrash;
  crash.time = crash_at;
  crashed.faults.push_back(crash);
  crashed.checkpoint_sink = &crash_sink;
  const RunResult halted = MustRun(GetParam(), crashed);
  EXPECT_LE(halted.total_virtual_seconds, crash_at);
  ASSERT_FALSE(crash_sink.empty());

  // Restore into the no-crash config and finish: the crash is absent from
  // the checkpoint's fingerprint and its pending event was filtered from
  // the serialized queue, so the continuation must reproduce the
  // uninterrupted bits — fault counters included.
  std::vector<uint8_t> restored_sink;
  ExperimentConfig restored = uninterrupted;
  restored.checkpoint_sink = &restored_sink;
  restored.restore_source = &crash_sink;
  const RunResult got = MustRun(GetParam(), restored);
  ExpectBitIdentical(want, got);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.rounds_degraded, got.rounds_degraded);
  EXPECT_EQ(want.peers_timed_out, got.peers_timed_out);
}

// Worker 1 straggles and worker 2 is dead from 10% to 80% of the fault-free
// run's virtual duration `t`; a crash at `crash_fraction * t` (when > 0)
// halts the run there.
net::FaultSchedule DeadWindowSchedule(double t, double crash_fraction) {
  auto at = [t](double fraction) { return std::to_string(fraction * t); };
  std::string spec = "slow@" + at(0.05) + "+" + at(0.2) + "x4:w1;leave@" +
                     at(0.1) + ":w2;";
  if (crash_fraction > 0.0) spec += "crash@" + at(crash_fraction) + ";";
  spec += "join@" + at(0.8) + ":w2";
  auto schedule = net::FaultSchedule::Parse(spec);
  NETMAX_CHECK_OK(schedule.status());
  return *schedule;
}

// A checkpoint taken while a worker is dead captures the dead-peer machinery
// mid-flight: pending peer-wait re-probes and timeout deadlines, degraded
// local steps, a synchronous round blocked on the dead worker, and parked
// iteration chains that the later join must restart. Restoring those from
// the checkpoint bytes — under both dead-peer policies, serially and on a
// pool — must finish on the uninterrupted run's bits, fault counters
// included.
TEST_P(CheckpointRoundTrip, CheckpointInsideDeadWindowBitIdentical) {
  ExperimentConfig base = BaseConfig();
  base.dataset.num_train = 1024;  // 16 iterations per worker: a long window
  base.peer_timeout_seconds = 1.0;
  base.peer_poll_seconds = 0.4;
  const double fault_free = MustRun(GetParam(), base).total_virtual_seconds;
  ASSERT_GT(fault_free, 0.0);
  base.faults = DeadWindowSchedule(fault_free, 0.0);
  // Midway between the leave (10%) and the join (80%).
  constexpr double kCheckpointFraction = 0.45;

  for (const core::PeerPolicy policy :
       {core::PeerPolicy::kWait, core::PeerPolicy::kTimeoutAndContinue}) {
    SCOPED_TRACE("policy=" + std::string(core::PeerPolicyName(policy)));
    base.peer_policy = policy;
    const RunResult reference = MustRun(GetParam(), base);
    EXPECT_EQ(reference.faults_injected, 3);

    // A crash at the checkpoint time halts the run right there and reports
    // the counters so far: the dead window has already degraded rounds when
    // the checkpoint is taken. Two engines have nothing to degrade there:
    // PS-async's server never dies (the dead worker just parks its chain),
    // and Prague under wait forms its groups from the live workers.
    ExperimentConfig halted_config = base;
    halted_config.faults = DeadWindowSchedule(fault_free, kCheckpointFraction);
    const RunResult halted = MustRun(GetParam(), halted_config);
    const bool degrades =
        GetParam() != "ps-async" &&
        !(GetParam() == "prague" && policy == core::PeerPolicy::kWait);
    if (degrades) {
      EXPECT_GT(halted.rounds_degraded, 0);
    }

    for (const int threads : {1, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::vector<uint8_t> checkpoint;
      ExperimentConfig with_checkpoint = base;
      with_checkpoint.threads = threads;
      with_checkpoint.checkpoint_at_seconds = kCheckpointFraction * fault_free;
      with_checkpoint.checkpoint_sink = &checkpoint;
      MustRun(GetParam(), with_checkpoint);
      ASSERT_FALSE(checkpoint.empty());

      ExperimentConfig resumed = base;
      resumed.threads = threads;
      resumed.restore_source = &checkpoint;
      const RunResult restored = MustRun(GetParam(), resumed);
      ExpectBitIdentical(reference, restored);
      EXPECT_EQ(reference.faults_injected, restored.faults_injected);
      EXPECT_EQ(reference.rounds_degraded, restored.rounds_degraded);
      EXPECT_EQ(reference.peers_timed_out, restored.peers_timed_out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointRoundTrip,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

// --- wire-format and plumbing error paths (one algorithm suffices) ---

std::vector<uint8_t> MakeCheckpoint(const ExperimentConfig& base,
                                    const std::string& name = "gossip") {
  const RunResult reference = MustRun(name, base);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(name, with_checkpoint);
  NETMAX_CHECK(!checkpoint.empty());
  return checkpoint;
}

TEST(CheckpointErrors, TruncatedBytesAreRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.resize(checkpoint.size() / 2);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_FALSE(status.ok());
}

// The loss series' length field set to 2^61, which wraps `size * 16` to 0 in
// 64 bits: the overflow-safe check reports OutOfRange instead of letting
// reserve abort the process. The field is found by the series' first point,
// which the checkpointed series shares with the finished run's.
TEST(CheckpointErrors, HugeSeriesLengthIsOutOfRange) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  ASSERT_FALSE(reference.loss_vs_time.empty());
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  Serializer first_point;
  first_point.WriteDouble(reference.loss_vs_time.front().x);
  first_point.WriteDouble(reference.loss_vs_time.front().y);
  const auto found =
      std::search(checkpoint.begin(), checkpoint.end(),
                  first_point.bytes().begin(), first_point.bytes().end());
  ASSERT_NE(found, checkpoint.end());
  ASSERT_GE(found - checkpoint.begin(), 8);
  Serializer huge_length;
  huge_length.WriteU64(uint64_t{1} << 61);
  std::copy(huge_length.bytes().begin(), huge_length.bytes().end(),
            found - 8);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_NE(status.message().find("series"), std::string::npos)
      << status.ToString();
}

// Byte offset of the engine blob's n x n policy matrix: the last SaveMatrix
// header (rows, cols, element count) in the checkpoint.
size_t PolicyMatrixOffset(const std::vector<uint8_t>& checkpoint, int n) {
  Serializer header;
  header.WriteInt(n);
  header.WriteInt(n);
  header.WriteU64(static_cast<uint64_t>(n) * static_cast<uint64_t>(n));
  const auto found =
      std::find_end(checkpoint.begin(), checkpoint.end(),
                    header.bytes().begin(), header.bytes().end());
  NETMAX_CHECK(found != checkpoint.end());
  return static_cast<size_t>(found - checkpoint.begin());
}

// Overwrites the bytes at `offset` with what `write` serializes.
template <typename WriteFn>
void Splice(std::vector<uint8_t>* checkpoint, size_t offset, WriteFn write) {
  Serializer out;
  write(out);
  NETMAX_CHECK_LE(offset + out.bytes().size(), checkpoint->size());
  std::copy(out.bytes().begin(), out.bytes().end(),
            checkpoint->begin() + static_cast<std::ptrdiff_t>(offset));
}

// Writes `row` over row `w` of the policy matrix at `offset`.
void SplicePolicyRow(std::vector<uint8_t>* checkpoint, size_t offset, int n,
                     int w, const std::vector<double>& row) {
  Splice(checkpoint, offset + 24 + 8 * static_cast<size_t>(w * n),
         [&](Serializer& out) {
           for (const double p : row) out.WriteDouble(p);
         });
}

// The policy matrix's stored shape set to 2^30 x 2^30: LoadMatrix refuses
// any shape but n x n before it allocates (2^60 doubles would abort).
TEST(CheckpointErrors, HugePolicyShapeIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "netmax");
  Splice(&checkpoint, PolicyMatrixOffset(checkpoint, base.num_workers),
         [](Serializer& out) {
           out.WriteInt(1 << 30);
           out.WriteInt(1 << 30);
         });
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("netmax", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("shape"), std::string::npos)
      << status.ToString();
}

// Restored NetMax policy rows with a negative entry are refused instead of
// reaching the peer sampler, which aborts on negative probabilities. Every
// row gets one, because workers that already finished never draw again, and
// the monitor is off so no tick replaces the policy before the draws.
TEST(CheckpointErrors, NegativePolicyEntryIsRejected) {
  ExperimentConfig base = BaseConfig();
  base.adaptive_policy = false;
  const int n = base.num_workers;
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "netmax");
  const size_t offset = PolicyMatrixOffset(checkpoint, n);
  for (int w = 0; w < n; ++w) {
    std::vector<double> row(static_cast<size_t>(n), 1.0 / (n - 2));
    row[static_cast<size_t>(w)] = 0.0;
    // Still sums to 1: one neighbor gives its share to another.
    row[static_cast<size_t>((w + 1) % n)] = -1.0 / (n - 2);
    row[static_cast<size_t>((w + 2) % n)] = 2.0 / (n - 2);
    SplicePolicyRow(&checkpoint, offset, n, w, row);
  }
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("netmax", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("negative"), std::string::npos)
      << status.ToString();
}

// A restored AD-PSGD row with all its mass on p_ww is a valid policy row but
// would spin StartIteration's redraw-until-a-peer loop forever. Every row is
// made so, because workers that already finished never draw again.
TEST(CheckpointErrors, AdPsgdPolicyRowWithoutNeighborMassIsRejected) {
  const ExperimentConfig base = BaseConfig();
  const int n = base.num_workers;
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "adpsgd");
  const size_t offset = PolicyMatrixOffset(checkpoint, n);
  for (int w = 0; w < n; ++w) {
    std::vector<double> row(static_cast<size_t>(n), 0.0);
    row[static_cast<size_t>(w)] = 1.0;
    SplicePolicyRow(&checkpoint, offset, n, w, row);
  }
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("adpsgd", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("neighbor mass"), std::string::npos)
      << status.ToString();
}

// One pending event of a checkpoint's queue section, with the byte offsets
// of its time and first arg so a test can overwrite them in place.
struct CheckpointedEvent {
  int worker_key = -1;
  int64_t tag = -1;
  std::vector<double> args;
  size_t time_offset = 0;
  size_t args_offset = 0;
};

// The simulator section of a checkpoint: the clock's byte offset and the
// pending events.
struct CheckpointedQueue {
  size_t clock_offset = 0;
  std::vector<CheckpointedEvent> events;
};

// Reads past the fingerprint SerializeCheckpoint writes before the clock.
CheckpointedQueue ReadCheckpointedQueue(const std::vector<uint8_t>& checkpoint) {
  Deserializer in(checkpoint);
  const auto offset = [&] { return checkpoint.size() - in.remaining(); };
  const auto skip = [](const auto& read) { NETMAX_CHECK_OK(read.status()); };
  CheckpointedQueue queue;
  skip(in.ReadU32());     // magic
  skip(in.ReadU32());     // version
  skip(in.ReadString());  // algorithm
  skip(in.ReadInt());     // workers
  skip(in.ReadU64());     // seed
  skip(in.ReadInt());     // max epochs
  skip(in.ReadI64());     // model parameters
  skip(in.ReadString());  // profile name
  skip(in.ReadI64());     // profile parameters
  skip(in.ReadDouble());  // profile compute seconds
  skip(in.ReadString());  // compression spec
  queue.clock_offset = offset();
  skip(in.ReadDouble());  // clock
  skip(in.ReadI64());     // next sequence
  skip(in.ReadI64());     // events processed
  const StatusOr<uint64_t> count = in.ReadU64();
  NETMAX_CHECK_OK(count.status());
  queue.events.resize(*count);
  for (CheckpointedEvent& event : queue.events) {
    event.time_offset = offset();
    skip(in.ReadDouble());  // time
    skip(in.ReadI64());     // sequence
    const StatusOr<int> worker_key = in.ReadInt();
    const StatusOr<int64_t> tag = in.ReadI64();
    NETMAX_CHECK_OK(worker_key.status());
    NETMAX_CHECK_OK(tag.status());
    event.worker_key = *worker_key;
    event.tag = *tag;
    event.args_offset = offset() + 8;  // past the args' 8-byte count
    NETMAX_CHECK_OK(in.ReadDoubleVec(&event.args));
  }
  return queue;
}

// A NaN clock or an infinite event time is refused: the clock would
// otherwise fail the scheduling check later, and an infinite time would
// reach the calendar queue's bucket arithmetic.
TEST(CheckpointErrors, RestoredNonFiniteTimesAreRejected) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  const CheckpointedQueue queue = ReadCheckpointedQueue(checkpoint);
  ASSERT_FALSE(queue.events.empty());
  for (const auto& [offset, value] :
       {std::pair{queue.clock_offset,
                  std::numeric_limits<double>::quiet_NaN()},
        std::pair{queue.events.back().time_offset,
                  std::numeric_limits<double>::infinity()}}) {
    std::vector<uint8_t> patched = checkpoint;
    Splice(&patched, offset,
           [value](Serializer& out) { out.WriteDouble(value); });
    ExperimentConfig resumed = base;
    resumed.restore_source = &patched;
    const Status status = TryRun("gossip", resumed);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << value << ": " << status.ToString();
  }
}

// A restored harness fault event meets the rule a --faults entry meets. A
// pending slowdown on w1 whose worker is patched past the run's 8 workers,
// or to NaN, is refused instead of indexing the per-worker fault state.
TEST(CheckpointErrors, RestoredFaultEventWithBadWorkerIsRejected) {
  ExperimentConfig base = BaseConfig();
  const double t = MustRun("netmax", base).total_virtual_seconds;
  auto faults = net::FaultSchedule::Parse("slow@" + std::to_string(0.75 * t) +
                                          "+" + std::to_string(0.1 * t) +
                                          "x2:w1");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  base.faults = *faults;
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "netmax");
  size_t worker_offset = 0;
  for (const CheckpointedEvent& event :
       ReadCheckpointedQueue(checkpoint).events) {
    if (event.tag != core::kHarnessFaultTag) continue;
    ASSERT_EQ(event.args.size(), 4u);
    ASSERT_EQ(event.args[1], 1.0);  // args: [kind, worker, factor, duration]
    worker_offset = event.args_offset + 8;
  }
  ASSERT_GT(worker_offset, 0u) << "the slowdown is not pending";

  for (const double worker :
       {1e9, 100.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<uint8_t> patched = checkpoint;
    Splice(&patched, worker_offset,
           [worker](Serializer& out) { out.WriteDouble(worker); });
    ExperimentConfig resumed = base;
    resumed.restore_source = &patched;
    const Status status = TryRun("netmax", resumed);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "worker " << worker << ": " << status.ToString();
  }
}

// Engine event args decode through net::DecodeIntArg, so a NetMax pull
// whose peer is NaN is refused before any cast to int.
TEST(CheckpointErrors, RestoredNetMaxPullWithNaNPeerIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "netmax");
  constexpr int64_t kNetMaxPullTag = 1;  // args: [peer, compute, wall, round]
  int pulls = 0;
  for (const CheckpointedEvent& event :
       ReadCheckpointedQueue(checkpoint).events) {
    if (event.tag != kNetMaxPullTag || event.worker_key < 0) continue;
    ASSERT_EQ(event.args.size(), 4u);
    Splice(&checkpoint, event.args_offset, [](Serializer& out) {
      out.WriteDouble(std::numeric_limits<double>::quiet_NaN());
    });
    ++pulls;
  }
  ASSERT_GT(pulls, 0) << "no pull is pending at the checkpoint";
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("netmax", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("NetMax"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointErrors, BadMagicIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint[0] ^= 0xFF;
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(CheckpointErrors, OtherVersionIsRejected) {
  // A checkpoint stamped with another format version is refused, not
  // misread: version 3 kept the parked-chain flags in the engine blobs.
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  Serializer old_version;
  old_version.WriteU32(core::kCheckpointVersion - 1);
  std::copy(old_version.bytes().begin(), old_version.bytes().end(),
            checkpoint.begin() + 4);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointErrors, TrailingGarbageIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.push_back(0x00);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, AlgorithmFingerprintMismatch) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "gossip");
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("adpsgd", resumed);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointErrors, ConfigFingerprintMismatches) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);

  ExperimentConfig wrong_seed = base;
  wrong_seed.seed = base.seed + 1;
  wrong_seed.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_seed).code(),
            StatusCode::kFailedPrecondition);

  ExperimentConfig wrong_workers = base;
  wrong_workers.num_workers = base.num_workers / 2;
  wrong_workers.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_workers).code(),
            StatusCode::kFailedPrecondition);

  ExperimentConfig wrong_epochs = base;
  wrong_epochs.max_epochs = base.max_epochs + 1;
  wrong_epochs.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_epochs).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointErrors, RestorePathAndSourceAreMutuallyExclusive) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  resumed.restore_path = "/nonexistent/also-set";
  EXPECT_FALSE(TryRun("gossip", resumed).ok());
}

TEST(CheckpointFiles, FileRoundTripRestoresBitIdentically) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_checkpoint_test.ckpt";

  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", with_checkpoint));

  ExperimentConfig resumed = base;
  resumed.restore_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", resumed));
  std::remove(path.c_str());
}

TEST(CheckpointFiles, PeriodicCadenceRotatesHistory) {
  // The periodic cadence keeps `<path>` pointing at the newest snapshot —
  // what --restore-path naturally resumes from after a crash — plus a
  // `<path>.t<k>` history trimmed to checkpoint_retain files.
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_cadence_test.ckpt";

  ExperimentConfig cadenced = base;
  cadenced.checkpoint_every_seconds = 0.15 * reference.total_virtual_seconds;
  cadenced.checkpoint_path = path;
  cadenced.checkpoint_retain = 2;
  const RunResult want = MustRun("gossip", cadenced);
  // Transparent to training (the tick chain may stretch the clock itself).
  ExpectSeriesIdentical(reference.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  EXPECT_EQ(reference.final_train_loss, want.final_train_loss);

  auto newest = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(newest);
  int kept = 0;
  std::vector<uint8_t> newest_history;
  for (int tick = 1; tick <= 32; ++tick) {
    auto bytes = core::ReadCheckpointFile(path + ".t" + std::to_string(tick));
    if (!bytes.ok()) continue;
    ++kept;
    newest_history = *bytes;
    std::remove((path + ".t" + std::to_string(tick)).c_str());
  }
  // ~6 ticks fired; only the retained tail survives, and `<path>` holds the
  // same bytes as the newest history file.
  EXPECT_GT(kept, 0);
  EXPECT_LE(kept, cadenced.checkpoint_retain);
  EXPECT_EQ(*newest, newest_history);
  std::remove(path.c_str());

  // The newest periodic snapshot restores and finishes bit-identically. The
  // resumed run keeps the cadence armed (into a sink, not the file): the
  // tick chain consumes simulator sequence numbers, so dropping it would
  // diverge from the uninterrupted cadenced run.
  std::vector<uint8_t> snapshot = *newest;
  std::vector<uint8_t> resumed_sink;
  ExperimentConfig resumed = cadenced;
  resumed.checkpoint_path.clear();
  resumed.checkpoint_sink = &resumed_sink;
  resumed.restore_source = &snapshot;
  ExpectBitIdentical(want, MustRun("gossip", resumed));
}

TEST(CheckpointFiles, MissingFileIsNotFound) {
  ExperimentConfig resumed = BaseConfig();
  resumed.restore_path = "/nonexistent/netmax.ckpt";
  EXPECT_EQ(TryRun("gossip", resumed).code(), StatusCode::kNotFound);
}

TEST(CheckpointFiles, WriteToUnwritablePathSurfacesThroughRunStatus) {
  // An armed checkpoint that cannot write its file must fail the run (via
  // Harness::checkpoint_status), not crash it or silently drop the bytes.
  ExperimentConfig config = BaseConfig();
  config.checkpoint_at_seconds = 1.0;
  config.checkpoint_path = "/nonexistent-dir/netmax.ckpt";
  const Status status = TryRun("gossip", config);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointFiles, RawFileHelpersRoundTrip) {
  const std::vector<uint8_t> bytes = {0x01, 0x02, 0xFF, 0x00, 0x7E};
  const std::string path = ::testing::TempDir() + "/netmax_raw_bytes.bin";
  NETMAX_EXPECT_OK(core::WriteCheckpointFile(path, bytes));
  auto read_back = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(read_back);
  EXPECT_EQ(*read_back, bytes);
  std::remove(path.c_str());
}

TEST(CheckpointArming, CheckpointPastEndOfRunFailsLoudly) {
  // A checkpoint time beyond the end of training would produce a dead
  // checkpoint and (when past the last event) drag the virtual clock with
  // it; the harness fails the run instead of doing either silently.
  std::vector<uint8_t> checkpoint;
  ExperimentConfig late = BaseConfig();
  late.checkpoint_at_seconds = 1e6;  // beyond the run's end, below the cap
  late.checkpoint_sink = &checkpoint;
  const Status status = TryRun("gossip", late);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("past the end"), std::string::npos);
  EXPECT_TRUE(checkpoint.empty());
}

}  // namespace
}  // namespace netmax
