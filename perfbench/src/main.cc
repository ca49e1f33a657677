// The NetMax benchmark program. One invocation runs one workload in a closed
// loop for a fixed host-time budget and prints its end-to-end metrics
// (--trace 0) or its per-layer split (--trace 1), then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads and the metric definitions.
//
//   netmax_perfbench --workload paper8 [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out FILE] [--git-commit SHA]
//
// Exits 0 when every output check passed, 1 when one failed, 2 on bad flags.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace netmax::perfbench {
namespace {

// Each timed loop runs at least this many passes, whatever the budget.
constexpr int kMinPasses = 3;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
  std::string git_commit = "unknown";
};

StatusOr<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return InvalidArgumentError(flag + " needs a value");
    const std::string value = argv[++i];
    const auto parse_uint = [&](uint64_t* out) {
      const auto [end, error] =
          std::from_chars(value.data(), value.data() + value.size(), *out);
      return error == std::errc() && end == value.data() + value.size();
    };
    uint64_t number = 0;
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--seed" && parse_uint(&number)) {
      flags.seed = number;
      flags.seed_set = true;
    } else if (flag == "--seconds" && parse_uint(&number) && number >= 1) {
      flags.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      flags.trace = value == "1";
    } else if (flag == "--trace-out") {
      flags.trace_out = value;
    } else if (flag == "--git-commit") {
      flags.git_commit = value;
    } else {
      return InvalidArgumentError("bad flag " + flag + " " + value);
    }
  }
  if (flags.workload.empty()) return InvalidArgumentError("--workload is required");
  if (!flags.seed_set) flags.seed = DefaultSeed(flags.workload);
  return flags;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Shortest decimal that reads back as the same double.
std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

// Peak resident memory of this process image, from /proc/self/status
// VmHWM. (getrusage's ru_maxrss would also count the image of a larger
// parent that forked and exec'd this one.) 0 where procfs is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Counts a pass reports, summed over its runs. Work (iterations, samples,
// checkpoints) counts only runs that train from scratch.
struct PassCounts {
  double samples = 0.0;
  double iterations = 0.0;
  double policies = 0.0;
  double messages = 0.0;
  double bytes_sent = 0.0;
  double checkpoints = 0.0;
  double checkpoint_bytes = 0.0;
  double restores = 0.0;
  double speculated = 0.0;
  double redispatched = 0.0;
  double window_stalls = 0.0;
};

PassCounts Count(const Workload& workload, const Pass& pass) {
  PassCounts counts;
  for (size_t run = 0; run < workload.runs.size(); ++run) {
    const RunSpec& spec = workload.runs[run];
    if (!pass.results[run].ok()) continue;
    const core::RunResult& result = *pass.results[run];
    counts.speculated += static_cast<double>(result.computes_speculated);
    counts.redispatched += static_cast<double>(result.computes_redispatched);
    counts.window_stalls += static_cast<double>(result.window_stalls);
    if (spec.config.restore_source != nullptr) counts.restores += 1.0;
    if (!spec.from_scratch) continue;
    const double iterations =
        static_cast<double>(result.total_local_iterations);
    counts.iterations += iterations;
    counts.samples += iterations * spec.config.batch_size;
    counts.policies += static_cast<double>(result.policies_generated);
    counts.messages += static_cast<double>(result.messages_sent);
    counts.bytes_sent += static_cast<double>(result.bytes_sent);
    counts.checkpoints +=
        static_cast<double>(CheckpointCount(result, spec.config));
    if (spec.config.checkpoint_sink != nullptr) {
      counts.checkpoint_bytes +=
          static_cast<double>(spec.config.checkpoint_sink->size());
    }
  }
  return counts;
}

// What a loop keeps of each pass once its outputs are checked: timings and
// counts, not the results, so memory does not grow with the pass count.
struct PassRecord {
  double wall_s = 0.0;
  double mean_run_s = 0.0;
  PassCounts counts;
};

struct Loop {
  std::vector<PassRecord> passes;
  // Host seconds of one ExperimentHarness::Init before each pass.
  std::vector<double> setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  // Checks every run of `pass` (against `first` unless null) and records it.
  void Add(const Workload& workload, const Pass& pass, const Pass* first) {
    for (size_t run = 0; run < workload.runs.size(); ++run) {
      const std::vector<std::string> errors =
          CheckRun(workload, pass, run, first);
      ++attempted;
      if (!errors.empty()) ++failed;
      failures.insert(failures.end(), errors.begin(), errors.end());
    }
    passes.push_back({pass.wall_s, Mean(pass.run_wall_s), Count(workload, pass)});
  }

  // Per-run host seconds: the median over passes of the pass's mean run time.
  double RunWall() const {
    std::vector<double> values;
    for (const PassRecord& pass : passes) values.push_back(pass.mean_run_s);
    return Median(std::move(values));
  }
  double PassWall() const {
    std::vector<double> values;
    for (const PassRecord& pass : passes) values.push_back(pass.wall_s);
    return Median(std::move(values));
  }
  double SamplesPerSecond() const {
    std::vector<double> values;
    for (const PassRecord& pass : passes) {
      values.push_back(pass.counts.samples / pass.wall_s);
    }
    return Median(std::move(values));
  }
  // The first pass's counts, with the backend counters, which may vary from
  // pass to pass, averaged over all passes.
  PassCounts Counts() const {
    PassCounts counts = passes.front().counts;
    counts.speculated = counts.redispatched = counts.window_stalls = 0.0;
    const double n = static_cast<double>(passes.size());
    for (const PassRecord& pass : passes) {
      counts.speculated += pass.counts.speculated / n;
      counts.redispatched += pass.counts.redispatched / n;
      counts.window_stalls += pass.counts.window_stalls / n;
    }
    return counts;
  }
};

// Spreads timed work evenly over the cores this process may use: each
// Next() pins the calling thread to the next `width` allowed cores, round
// robin, and the pool threads a run creates inherit that set. On a shared
// machine one core's neighbours can slow it by a third for tens of seconds;
// rotating keeps an invocation from sitting on one such core throughout. A
// no-op when there are no more cores than `width`.
class CoreRotation {
 public:
  explicit CoreRotation(int width) : width_(width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cores_.push_back(cpu);
    }
    original_ = allowed;
  }
  ~CoreRotation() {
    if (static_cast<int>(cores_.size()) > width_) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    const int n = static_cast<int>(cores_.size());
    if (n <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < width_; ++i) {
      CPU_SET(cores_[static_cast<size_t>((next_ + i) % n)], &set);
    }
    next_ = (next_ + 1) % n;
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  int width_;
  int next_ = 0;
  std::vector<int> cores_;
  cpu_set_t original_{};
};

// Host seconds of one ExperimentHarness::Init on `config`.
StatusOr<double> InitSeconds(const core::ExperimentConfig& config) {
  core::ExperimentHarness harness(config, "setup");
  const auto start = std::chrono::steady_clock::now();
  NETMAX_RETURN_IF_ERROR(harness.Init());
  return Seconds(start);
}

// Runs passes until `budget_s` of host time has gone (at least kMinPasses
// into `untraced`), and times one ExperimentHarness::Init on the workload's
// first config before each untraced pass, so that setup_s, like the pass
// times, is a median over the whole budget rather than a snapshot of one
// moment of a shared machine. With a tracer, passes go in pairs on the same
// cores, one untraced and one traced (recorded into `traced`), the untraced
// one first in every other pair: the two sets of passes see the same
// machine, neither always runs first after a move to new cores, and the
// tracing overhead is their difference. Every pass must reproduce
// `reference`; when it is empty, the loop's first pass becomes the reference.
void ClosedLoop(const Workload& workload, double budget_s, Tracer* tracer,
                CoreRotation& cores, std::optional<Pass>& reference,
                Loop& untraced, Loop& traced) {
  std::vector<Tracer*> modes = {nullptr};
  if (tracer != nullptr) modes.push_back(tracer);
  const auto start = std::chrono::steady_clock::now();
  while (static_cast<int>(untraced.passes.size()) < kMinPasses ||
         Seconds(start) < budget_s) {
    cores.Next();
    const StatusOr<double> init_s = InitSeconds(workload.runs.front().config);
    ++untraced.attempted;
    if (init_s.ok()) {
      untraced.setup_s.push_back(*init_s);
    } else {
      ++untraced.failed;
      untraced.failures.push_back(workload.name + ": set-up: " +
                                  init_s.status().ToString());
    }
    std::reverse(modes.begin(), modes.end());
    for (Tracer* mode : modes) {
      ScopedSpan span(mode, "perfbench.pass");
      Pass pass = RunPass(workload, mode);
      (mode == nullptr ? untraced : traced)
          .Add(workload, pass, reference ? &*reference : nullptr);
      if (!reference) reference = std::move(pass);
    }
  }
}

std::string Joined(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) out += (out.empty() ? "" : ",") + name;
  return out;
}

int Run(const Flags& flags) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  StatusOr<Workload> prepared =
      PrepareWorkload(flags.workload, flags.seed, nproc);
  if (!prepared.ok()) {
    std::cerr << "perfbench: " << prepared.status().ToString() << "\n";
    return 1;
  }
  const Workload& workload = *prepared;
  StatusOr<double> speedup = Fig8NetmaxSpeedup();
  if (!speedup.ok()) {
    std::cerr << "perfbench: " << speedup.status().ToString() << "\n";
    return 1;
  }
  CoreRotation cores(workload.threads);

  // The first timed pass is the reference every later pass must reproduce.
  // Set-up above has already run every algorithm, so caches are warm.
  Tracer tracer;
  std::optional<Pass> first;
  Loop timed, traced;
  StatusOr<LayerCosts> costs = LayerCosts{};
  if (!flags.trace) {
    ClosedLoop(workload, flags.seconds, nullptr, cores, first, timed, traced);
  } else {
    ScopedSpan root(&tracer, "perfbench.workload", workload.name);
    ClosedLoop(workload, flags.seconds, &tracer, cores, first, timed, traced);
    costs = MeasureLayers(workload, &tracer);
  }

  // final_accuracy reads the workload's runs at its pinned default seed, so
  // like netmax_speedup_x it does not move with --seed: a change to it is a
  // change of the training, not of the inputs. Another seed takes one more
  // (checked, untimed) pass at the pinned seed.
  Loop pinned;
  const Pass* accuracy_pass = &*first;
  std::optional<Pass> pinned_pass;
  if (!flags.trace && workload.seed != DefaultSeed(workload.name)) {
    StatusOr<Workload> pinned_workload = PrepareWorkload(
        workload.name, DefaultSeed(workload.name), nproc);
    if (!pinned_workload.ok()) {
      std::cerr << "perfbench: " << pinned_workload.status().ToString()
                << "\n";
      return 1;
    }
    pinned_pass = RunPass(*pinned_workload, nullptr);
    pinned.Add(*pinned_workload, *pinned_pass, nullptr);
    accuracy_pass = &*pinned_pass;
  }
  double accuracy = 0.0;
  for (const auto& result : accuracy_pass->results) {
    if (result.ok()) {
      accuracy += result->final_accuracy / accuracy_pass->results.size();
    }
  }

  std::set<std::string> backends, queues;
  for (const auto& result : first->results) {
    if (!result.ok()) continue;
    backends.insert(result->backend);
    queues.insert(result->event_queue);
  }
  const std::vector<std::pair<std::string, std::string>> context = {
      {"workload", workload.name},
      {"seed", std::to_string(workload.seed)},
      {"nproc", std::to_string(nproc)},
      {"threads", std::to_string(workload.threads)},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_commit", flags.git_commit},
      {"backend", Joined(backends)},
      {"event_queue", Joined(queues)},
  };

  std::vector<Metric> metrics;
  if (!flags.trace) {
    metrics = {
        {"run_wall_s", timed.RunWall(), "s"},
        {"samples_per_s", timed.SamplesPerSecond(), "samples/s"},
        {"setup_s", Median(timed.setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"netmax_speedup_x", *speedup, "x"},
        {"final_accuracy", accuracy, "fraction"},
    };
  } else {
    if (!costs.ok()) {
      traced.failures.push_back(workload.name + ": layer probe: " +
                                costs.status().ToString());
      ++traced.attempted;
      ++traced.failed;
      costs = LayerCosts{};
    }
    const PassCounts n = timed.Counts();
    const LayerCosts& c = *costs;
    // Shares are of a pass's thread-seconds: single-threaded busy time over
    // the untraced loop's pass wall time times the runs' simulation threads.
    const double thread_s = timed.PassWall() * workload.threads;
    const double policy_share = n.policies * c.generate_ms / 1e3 / thread_s;
    const double ml_share =
        n.iterations * (c.grad_us + c.step_us) / 1e6 / thread_s;
    const double compress_share = n.messages * c.encode_us / 1e6 / thread_s;
    const double checkpoint_share =
        (n.checkpoints * c.save_ms + n.restores * c.restore_ms) / 1e3 /
        thread_s;
    metrics = {
        {"core.policy.calls", n.policies, "count"},
        {"core.policy.generate_ms", c.generate_ms, "ms"},
        {"linalg.lambda2_ms", c.lambda2_ms, "ms"},
        {"linalg.lp_ms", std::max(0.0, c.generate_ms - c.lambda2_ms), "ms"},
        {"core.policy.share", policy_share, "fraction"},
        {"ml.grad.calls", n.iterations, "count"},
        {"ml.grad_us", c.grad_us, "us"},
        {"ml.step_us", c.step_us, "us"},
        {"ml.share", ml_share, "fraction"},
        {"core.backend.speculated", n.speculated, "count"},
        {"core.backend.redispatched", n.redispatched, "count"},
        {"core.backend.useful_frac",
         n.speculated > 0 ? 1.0 - n.redispatched / n.speculated : 0.0,
         "fraction"},
        {"core.backend.window_stalls", n.window_stalls, "count"},
        {"net.queue.op_ns", c.queue_op_ns, "ns"},
        {"net.messages", n.messages, "count"},
        {"net.bytes_sent", n.bytes_sent, "bytes"},
        {"ml.compress.encode_us", c.encode_us, "us"},
        {"ml.compress.share", compress_share, "fraction"},
        {"core.checkpoint.count", n.checkpoints, "count"},
        {"core.checkpoint.bytes", n.checkpoint_bytes, "bytes"},
        {"core.checkpoint.save_ms", c.save_ms, "ms"},
        {"core.checkpoint.restore_ms", c.restore_ms, "ms"},
        {"core.checkpoint.share", checkpoint_share, "fraction"},
        {"other.share",
         1.0 - policy_share - ml_share - compress_share - checkpoint_share,
         "fraction"},
        {"trace.overhead_s", traced.RunWall() - timed.RunWall(), "s"},
    };
    if (!flags.trace_out.empty()) {
      std::ofstream out(flags.trace_out);
      tracer.WriteChromeJson(out, context);
      out.close();
      if (!out) {
        std::cerr << "perfbench: cannot write " << flags.trace_out << "\n";
        return 1;
      }
    }
  }

  const int64_t attempted =
      timed.attempted + traced.attempted + pinned.attempted;
  const int64_t failed = timed.failed + traced.failed + pinned.failed;
  std::cout << "# perfbench";
  for (const auto& [key, value] : context) std::cout << " " << key << "=" << value;
  std::cout << "\n# runs/pass=" << workload.runs.size()
            << " timed passes=" << timed.passes.size()
            << " attempted=" << attempted
            << " failed=" << failed << " failed_frac="
            << Number(static_cast<double>(failed) / attempted) << "\n";
  const Loop* loops[] = {&timed, &traced, &pinned};
  for (const Loop* loop : loops) {
    for (const std::string& failure : loop->failures) {
      std::cout << "# CHECK FAILED " << failure << "\n";
    }
  }
  for (const Metric& metric : metrics) {
    std::cout << metric.name << " " << Number(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << Number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace netmax::perfbench

int main(int argc, char** argv) {
  const auto flags = netmax::perfbench::ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::cerr << "netmax_perfbench: " << flags.status().ToString()
              << "\nusage: netmax_perfbench --workload "
                 "paper8|netmax32|scale32|churn8 [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--git-commit SHA]\n";
    return 2;
  }
  return netmax::perfbench::Run(*flags);
}
