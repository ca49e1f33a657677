#include "core/monitor.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/stats.h"

namespace netmax::core {
namespace {

MonitorOptions DefaultMonitorOptions() {
  MonitorOptions options;
  options.schedule_period_seconds = 120.0;
  options.generator.alpha = 0.1;
  options.generator.outer_rounds = 4;
  options.generator.inner_rounds = 4;
  return options;
}

TEST(NetworkMonitorTest, RefusesBeforeAnyMeasurement) {
  net::Topology topo = net::Topology::Complete(4);
  NetworkMonitor monitor(topo, DefaultMonitorOptions());
  linalg::Matrix times(4, 4, 0.0);
  auto result = monitor.ComputePolicy(times);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(monitor.policies_generated(), 0);
}

TEST(NetworkMonitorTest, FillsMissingWithMaxMeasured) {
  net::Topology topo = net::Topology::Complete(3);
  NetworkMonitor monitor(topo, DefaultMonitorOptions());
  linalg::Matrix times(3, 3, 0.0);
  times(0, 1) = 1.0;
  times(1, 0) = 2.5;  // largest measured value
  auto filled = monitor.FillMissingTimes(times);
  ASSERT_TRUE(filled.has_value());
  EXPECT_DOUBLE_EQ((*filled)(0, 1), 1.0);   // measured values kept
  EXPECT_DOUBLE_EQ((*filled)(1, 0), 2.5);
  EXPECT_DOUBLE_EQ((*filled)(0, 2), 2.5);   // missing -> max measured
  EXPECT_DOUBLE_EQ((*filled)(2, 1), 2.5);
}

TEST(NetworkMonitorTest, GeneratesPolicyOncePartiallyMeasured) {
  net::Topology topo = net::Topology::Complete(4);
  NetworkMonitor monitor(topo, DefaultMonitorOptions());
  linalg::Matrix times(4, 4, 0.0);
  times(0, 1) = 0.5;
  times(1, 0) = 0.5;
  auto result = monitor.ComputePolicy(times);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->policy.Validate(topo).ok());
  EXPECT_EQ(monitor.policies_generated(), 1);
}

TEST(NetworkMonitorTest, SteersAwayFromMeasuredSlowLink) {
  const int n = 4;
  net::Topology topo = net::Topology::Complete(n);
  NetworkMonitor monitor(topo, DefaultMonitorOptions());
  linalg::Matrix times(n, n, 0.5);
  for (int i = 0; i < n; ++i) times(i, i) = 0.0;
  times(1, 2) = 10.0;
  times(2, 1) = 10.0;
  auto result = monitor.ComputePolicy(times);
  ASSERT_TRUE(result.ok()) << result.status();
  // The slow link gets (much) less than a uniform share, and node 1's fast
  // links collectively carry most of its probability mass. (The LP may park
  // several links exactly at the Eq. (11) lower bound, so comparing two
  // individual entries is not meaningful.)
  const double uniform_share = 1.0 / 3.0;
  EXPECT_LT(result->policy.probability(1, 2), 0.5 * uniform_share);
  EXPECT_GT(result->policy.probability(1, 0) +
                result->policy.probability(1, 3),
            2.0 * result->policy.probability(1, 2));
  EXPECT_EQ(monitor.policies_generated(), 1);
}

TEST(NetworkMonitorTest, CountsSuccessiveGenerations) {
  net::Topology topo = net::Topology::Complete(3);
  NetworkMonitor monitor(topo, DefaultMonitorOptions());
  linalg::Matrix times(3, 3, 1.0);
  for (int i = 0; i < 3; ++i) times(i, i) = 0.0;
  ASSERT_TRUE(monitor.ComputePolicy(times).ok());
  ASSERT_TRUE(monitor.ComputePolicy(times).ok());
  EXPECT_EQ(monitor.policies_generated(), 2);
}

// Record feeds the per-link EMAs a tick reads: the tick's policy equals
// ComputePolicy over the matrix of those EMAs, unmeasured links left at 0.
TEST(NetworkMonitorTest, RecordThenTickMatchesComputePolicy) {
  const int n = 4;
  net::Topology topo = net::Topology::Complete(n);
  MonitorOptions options = DefaultMonitorOptions();
  options.ema_beta = 0.25;
  NetworkMonitor recorded(topo, options);
  ExponentialMovingAverage slow(options.ema_beta);
  for (const double wall : {2.0, 6.0, 4.0}) {
    recorded.Record(1, 2, wall);
    slow.Add(wall);
  }
  recorded.Record(0, 1, 0.5);
  recorded.Record(3, 0, 0.75);
  linalg::Matrix times(n, n, 0.0);
  times(1, 2) = slow.value();
  times(0, 1) = 0.5;
  times(3, 0) = 0.75;
  const linalg::Matrix reported = recorded.TimeMatrix();
  EXPECT_EQ(reported.data(), times.data());

  NetworkMonitor direct(topo, options);
  auto ticked = recorded.Tick();
  auto computed = direct.ComputePolicy(times);
  ASSERT_TRUE(ticked.ok()) << ticked.status();
  ASSERT_TRUE(computed.ok()) << computed.status();
  EXPECT_EQ(ticked->policy.matrix().data(), computed->policy.matrix().data());
  EXPECT_EQ(ticked->rho, computed->rho);
  EXPECT_EQ(recorded.policies_generated(), 1);
}

// The checkpoint section round-trips byte for byte, and the restored monitor
// ticks to the same policy as the one it was saved from.
TEST(NetworkMonitorTest, SaveRestoreRoundTripIsByteIdentical) {
  net::Topology topo = net::Topology::Complete(3);
  NetworkMonitor saved(topo, DefaultMonitorOptions());
  saved.Record(0, 1, 1.0);
  saved.Record(0, 1, 3.0);
  saved.Record(2, 1, 0.5);
  ASSERT_TRUE(saved.Tick().ok());
  Serializer first;
  saved.Save(first);

  NetworkMonitor restored(topo, DefaultMonitorOptions());
  Deserializer in(first.bytes());
  const Status status = restored.Restore(in);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(restored.policies_generated(), 1);
  Serializer second;
  restored.Save(second);
  EXPECT_EQ(first.bytes(), second.bytes());
  auto a = saved.Tick();
  auto b = restored.Tick();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->policy.matrix().data(), b->policy.matrix().data());
}

// A grid of the wrong shape, a negative EMA sample count, and a negative
// policy count are refused as InvalidArgument.
TEST(NetworkMonitorTest, RestoreRejectsWrongShapeAndNegativeCounts) {
  NetworkMonitor three(net::Topology::Complete(3), DefaultMonitorOptions());
  Serializer three_bytes;
  three.Save(three_bytes);
  NetworkMonitor four(net::Topology::Complete(4), DefaultMonitorOptions());
  Deserializer wrong_rows(three_bytes.bytes());
  const Status rows = four.Restore(wrong_rows);
  EXPECT_EQ(rows.code(), StatusCode::kInvalidArgument) << rows;
  EXPECT_NE(rows.message().find("row count"), std::string::npos);

  // Writes a 3-row grid whose cells are (1.0, `count`), row 1 holding
  // `row1_cols` cells, followed by `generated`.
  auto grid = [](uint64_t row1_cols, int64_t count, int64_t generated) {
    Serializer out;
    out.WriteU64(3);
    for (int w = 0; w < 3; ++w) {
      const uint64_t cols = w == 1 ? row1_cols : 3;
      out.WriteU64(cols);
      for (uint64_t m = 0; m < cols; ++m) {
        out.WriteDouble(1.0);
        out.WriteI64(count);
      }
    }
    out.WriteI64(generated);
    return out.TakeBytes();
  };
  const std::vector<uint8_t> valid = grid(3, 1, 0);
  Deserializer valid_in(valid);
  NETMAX_EXPECT_OK(three.Restore(valid_in));
  const std::vector<uint8_t> short_row = grid(2, 1, 0);
  Deserializer short_row_in(short_row);
  const Status cols = three.Restore(short_row_in);
  EXPECT_EQ(cols.code(), StatusCode::kInvalidArgument) << cols;
  EXPECT_NE(cols.message().find("column count"), std::string::npos);
  const std::vector<uint8_t> negative_sample = grid(3, -1, 0);
  Deserializer negative_sample_in(negative_sample);
  EXPECT_EQ(three.Restore(negative_sample_in).code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint8_t> negative_generated = grid(3, 1, -1);
  Deserializer negative_generated_in(negative_generated);
  EXPECT_EQ(three.Restore(negative_generated_in).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetworkMonitorTest, RejectsNonPositivePeriod) {
  net::Topology topo = net::Topology::Complete(3);
  MonitorOptions options = DefaultMonitorOptions();
  options.schedule_period_seconds = 0.0;
  EXPECT_DEATH({ NetworkMonitor monitor(topo, options); }, "Check failed");
}

}  // namespace
}  // namespace netmax::core
