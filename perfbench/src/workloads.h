#ifndef NETMAX_PERFBENCH_WORKLOADS_H_
#define NETMAX_PERFBENCH_WORKLOADS_H_

// The benchmark's four workloads, the closed-loop pass that runs one of
// them, and the checks on its outputs. The benchmark reaches the library
// only through public entry points and never names an execution backend or
// event-queue kind: every run takes the ExperimentConfig defaults.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "perfbench/src/trace.h"

namespace netmax::perfbench {

inline constexpr std::string_view kWorkloadNames[] = {"paper8", "netmax32",
                                                      "scale32", "churn8"};

// Seed a workload runs with when none is given: the figure benches' own.
uint64_t DefaultSeed(std::string_view workload);

// The paper's Fig. 8 setup, bench::PaperBaseConfig(), at serial dispatch
// (threads=1) and `seed`: 8 workers, heterogeneous dynamic network, complete
// graph, ResNet18 cost profile, an MLP with one hidden layer of 32, 2048
// training samples, 24 epochs. `seed` drives model init, sampling and the
// network's dynamics; the synthetic corpus is fixed.
core::ExperimentConfig Fig8Config(uint64_t seed);

// The Fig. 8 comparison, in the figure bench's order (NetMax last).
inline constexpr std::string_view kFig8Algorithms[] = {"prague", "allreduce",
                                                       "adpsgd", "netmax"};

// netmax_speedup_x: AD-PSGD's virtual time-to-loss over NetMax's in the
// Fig. 8 comparison, at the loss level all four curves reach
// (bench::CommonLossThreshold); the median of the readings at the nine
// pinned seeds 1, 1001, ..., 8001. It does not depend on a workload's seed,
// so it reads the same in every invocation and any change to it is a change
// of the reproduction.
StatusOr<double> Fig8NetmaxSpeedup();

struct RunSpec {
  std::string label;      // unique within the workload
  std::string algorithm;  // registry name
  core::ExperimentConfig config;
  // False for a run that resumes from a checkpoint: it trains only the tail,
  // so its iterations and checkpoints are not counted as work.
  bool from_scratch = true;
  // Index of an earlier run of the same pass whose result this one must
  // reproduce bit for bit (the restored run), or -1.
  int must_equal_run = -1;
  // A result this run must reproduce bit for bit on every pass (the pooled
  // run's threads=1 twin), computed while preparing the workload.
  std::optional<core::RunResult> reference;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  int threads = 1;  // simulation threads of every run
  std::vector<RunSpec> runs;
  // Checkpoint buffers the run configs point at (stable addresses).
  std::vector<std::unique_ptr<std::vector<uint8_t>>> buffers;
};

// Builds the named workload for `seed` and runs its untimed reference runs:
// for scale32 every run once at threads=1; for churn8 a NetMax run that
// crashes half-way, whose newest periodic checkpoint the restored run
// resumes from. `max_threads` caps the pooled workload's thread count.
StatusOr<Workload> PrepareWorkload(std::string_view name, uint64_t seed,
                                   int max_threads);

struct Pass {
  double wall_s = 0.0;
  std::vector<double> run_wall_s;
  std::vector<StatusOr<core::RunResult>> results;
};

// Runs every run of the workload back to back, each starting when the
// previous one returns. With a tracer, each run gets an "algos.run" span.
Pass RunPass(const Workload& workload, Tracer* tracer);

// The output checks on run `run` of `pass`: an OK status, finite losses,
// the same simulation outputs as in `first` (the workload's first pass, or
// null when `pass` is the first), and equality with the run's reference and
// must_equal_run. Returns one message per failed check.
std::vector<std::string> CheckRun(const Workload& workload, const Pass& pass,
                                  size_t run, const Pass* first);

// Empty when `a` and `b` agree bit for bit on every simulation output (loss
// and accuracy series, final loss and accuracy, virtual time, cost split,
// iterations, consensus distance, policies, messages, bytes and fault
// counters); otherwise the name of the first field that differs.
std::string FirstDifference(const core::RunResult& a,
                            const core::RunResult& b);

// Checkpoints a run wrote: its periodic cadence saves at every tick before
// the last event, and the tick after it ends the run's clock.
int64_t CheckpointCount(const core::RunResult& result,
                        const core::ExperimentConfig& config);

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_WORKLOADS_H_
