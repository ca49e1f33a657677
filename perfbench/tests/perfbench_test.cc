// Unit tests of the benchmark's own code: the time-to-loss speedup reading
// on hand-made loss curves, and the span recorder's nesting and JSON output.

#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "perfbench/src/speedup.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace netmax::perfbench {
namespace {

TEST(SpeedupTest, TimeToLossInterpolatesAndRatiosBaselineOverCandidate) {
  // Baseline: loss 1.0 at t=0 down to 0.2 at t=40, reaching 0.6 at t=20.
  // Candidate: 1.0 at t=0, 0.2 at t=10, reaching 0.6 at t=5.
  const ml::Series baseline = {{0, 1.0}, {40, 0.2}};
  const ml::Series candidate = {{0, 1.0}, {10, 0.2}, {30, 0.1}};
  const StatusOr<double> at = TimeToLoss(baseline, 0.6);
  ASSERT_TRUE(at.ok());
  EXPECT_DOUBLE_EQ(*at, 20.0);
  const StatusOr<double> speedup = TimeToLossSpeedup(baseline, candidate, 0.6);
  ASSERT_TRUE(speedup.ok());
  EXPECT_DOUBLE_EQ(*speedup, 4.0);
}

TEST(SpeedupTest, ReadsBaselineOverCandidateAtTheCommonLossThreshold) {
  // bench::CommonLossThreshold marks 0.1 + 0.08 * 0.9 = 0.172 and
  // 0.5 + 0.08 * 1.5 = 0.62, and takes the higher. The candidate reaches
  // 0.62 at t = 10 * 0.38 / 0.6, the baseline at t = 10 + 30 * 0.38 / 0.5.
  std::vector<bench::NamedResult> results(2);
  results[0].result.loss_vs_time = {{0, 2.0}, {10, 1.0}, {40, 0.5}};
  results[1].result.loss_vs_time = {{0, 1.0}, {10, 0.4}, {20, 0.1}};
  const double threshold = bench::CommonLossThreshold(results);
  EXPECT_DOUBLE_EQ(threshold, 0.62);
  const StatusOr<double> speedup =
      TimeToLossSpeedup(results[0].result.loss_vs_time,
                        results[1].result.loss_vs_time, threshold);
  ASSERT_TRUE(speedup.ok());
  EXPECT_NEAR(*speedup, 32.8 / (3.8 / 0.6), 1e-9);
}

TEST(SpeedupTest, UnreachedThresholdAndEmptyInputsFail) {
  const ml::Series flat = {{0, 1.0}, {10, 0.9}};
  const ml::Series empty;
  EXPECT_FALSE(TimeToLoss(flat, 0.5).ok());
  EXPECT_FALSE(TimeToLossSpeedup(flat, flat, 0.5).ok());
  EXPECT_FALSE(TimeToLoss(empty, 0.5).ok());
}

TEST(TraceTest, SpansNestUnderTheInnermostOpenSpan) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "perfbench.workload", "w");
    { ScopedSpan run(&tracer, "algos.run", "netmax"); }
    {
      ScopedSpan pass(&tracer, "perfbench.pass");
      ScopedSpan grad(&tracer, "ml.grad");
    }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[3].parent, spans[2].id);
  for (const Span& span : spans) {
    EXPECT_TRUE(IsKnownSpanName(span.name));
    EXPECT_LE(span.start_us, span.end_us);
  }
}

TEST(TraceTest, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, "algos.run");
  SUCCEED();
}

TEST(TraceTest, ChromeJsonEscapesTextAndCarriesParents) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "perfbench.workload", "a \"quoted\"\nname");
  }
  std::ostringstream json;
  tracer.WriteChromeJson(json, {{"compiler", "gcc \\ 12"}});
  const std::string text = json.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(text.find("a \\\"quoted\\\"\\nname"), std::string::npos);
  EXPECT_NE(text.find("gcc \\\\ 12"), std::string::npos);
}

TEST(WorkloadTest, CheckpointCountExcludesTheTickThatEndsTheRun) {
  core::ExperimentConfig config;
  core::RunResult result;
  result.total_virtual_seconds = 130.0;
  EXPECT_EQ(CheckpointCount(result, config), 0);
  config.checkpoint_every_seconds = 10.0;
  EXPECT_EQ(CheckpointCount(result, config), 12);
}

TEST(WorkloadTest, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(PrepareWorkload("paper9", 1, 1).ok());
}

}  // namespace
}  // namespace netmax::perfbench
