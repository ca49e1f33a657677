#ifndef NETMAX_PERFBENCH_TRACE_H_
#define NETMAX_PERFBENCH_TRACE_H_

// Spans for the benchmark's traced pass. The benchmark opens a span around
// each call it makes into a library layer; spans nest on the single thread
// that drives the workload, so a span's parent is the innermost span open
// when it began. Spans stay in memory and are written out once, at the end,
// as Chrome trace-event JSON (load it in https://ui.perfetto.dev).

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netmax::perfbench {

// Every span name the benchmark records: one per layer boundary it times.
inline constexpr std::string_view kSpanNames[] = {
    "perfbench.workload",       // root: the whole traced pass
    "perfbench.pass",           // one closed-loop pass over the runs
    "algos.run",                // TrainingAlgorithm::Run
    "core.harness.init",        // ExperimentHarness::Init
    "core.policy.generate",     // PolicyGenerator::Generate
    "linalg.lambda2",           // linalg::SecondLargestEigenvalue
    "ml.grad",                  // Model::LossAndGradient
    "ml.step",                  // SgdOptimizer::Step
    "net.queue",                // EventQueue push + pop
    "ml.compress.encode",       // GradientCompressor Describe + Transform
    "core.checkpoint.save",     // runs at two checkpoint cadences
    "core.checkpoint.restore",  // a run restored from a checkpoint
};

bool IsKnownSpanName(std::string_view name);

struct Span {
  std::string name;
  int64_t id = 0;      // 1-based, in begin order
  int64_t parent = 0;  // 0 for the root span
  double start_us = 0.0;
  double end_us = 0.0;
  std::string detail;  // free text shown in the trace viewer
};

class Tracer {
 public:
  // Opens a span named `name` (one of kSpanNames) under the innermost open
  // span and returns its id.
  int64_t Begin(std::string_view name, std::string detail = {});
  // Closes the innermost open span, which must be `id`.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON: one complete ("X") event per span, with the
  // span id and parent id in its args, and `context` as metadata.
  void WriteChromeJson(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& context) const;

 private:
  double NowUs() const;

  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // ids of the open spans, innermost last
};

// RAII span; a null tracer records nothing (the untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::string detail = {})
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->Begin(name, std::move(detail))) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_TRACE_H_
