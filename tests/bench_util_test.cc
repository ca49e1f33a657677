// bench/bench_util.h flag parsing and run plumbing: InitBench must accept
// the documented flags, reject everything else with kInvalidArgument naming
// the offending text, and never exit the process itself (BenchMain owns the
// exit code). RunAlgorithms propagates run errors with the run's name.

#include "bench/bench_util.h"

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/experiment.h"

namespace netmax::bench {
namespace {

// InitBench(argv) with a fake binary name prepended.
StatusOr<bool> Init(std::vector<std::string> args) {
  std::vector<std::string> storage;
  storage.push_back("bench_under_test");
  for (std::string& arg : args) storage.push_back(std::move(arg));
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return InitBench(static_cast<int>(argv.size()), argv.data());
}

TEST(InitBenchTest, NoFlagsProceedsWithDefaults) {
  const StatusOr<bool> init = Init({});
  NETMAX_EXPECT_OK(init);
  EXPECT_TRUE(*init);
  EXPECT_FALSE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), -1);
  EXPECT_EQ(ShardsOverride(), -1);
}

TEST(InitBenchTest, ParsesTheDocumentedFlags) {
  const StatusOr<bool> init = Init({"--smoke", "--threads=4", "--shards=2"});
  NETMAX_EXPECT_OK(init);
  EXPECT_TRUE(*init);
  EXPECT_TRUE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), 4);
  EXPECT_EQ(ShardsOverride(), 2);
}

// The flags and variables that selected the deleted execution strategies
// must fail loudly: a stale script would otherwise silently measure the
// default backend.
TEST(InitBenchTest, RemovedStrategyOptionsAreInvalidArguments) {
  for (const std::string arg :
       {"--backend=async", "--backend=serial", "--reorder-window=4",
        "--adaptive-window", "--procs=2"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg.substr(0, arg.find('='))),
              std::string::npos)
        << arg;
    EXPECT_NE(init.status().message().find("removed"), std::string::npos)
        << arg;
  }
  for (const std::string queue : {"heap", "pairing"}) {
    const std::string arg = "--event-queue=" + queue;
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find("expected vector or calendar"),
              std::string::npos)
        << arg;
  }
  for (const char* env : {"NETMAX_BACKEND", "NETMAX_REORDER_WINDOW",
                          "NETMAX_ADAPTIVE_WINDOW", "NETMAX_PROCS"}) {
    ASSERT_EQ(setenv(env, "1", /*overwrite=*/1), 0) << env;
    const StatusOr<bool> init = Init({});
    unsetenv(env);
    ASSERT_FALSE(init.ok()) << env;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << env;
    EXPECT_NE(init.status().message().find(env), std::string::npos) << env;
  }
  NETMAX_EXPECT_OK(Init({}));
}

TEST(InitBenchTest, ReparsingResetsEarlierOverrides) {
  NETMAX_EXPECT_OK(Init({"--smoke", "--threads=4"}));
  NETMAX_EXPECT_OK(Init({}));
  EXPECT_FALSE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), -1);
}

TEST(InitBenchTest, HelpReturnsFalseNotError) {
  const StatusOr<bool> init = Init({"--help"});
  NETMAX_EXPECT_OK(init);
  EXPECT_FALSE(*init);
}

TEST(InitBenchTest, UnknownFlagNamesTheFlag) {
  const StatusOr<bool> init = Init({"--frobnicate"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--frobnicate"), std::string::npos);
}

TEST(InitBenchTest, ParsesTheFaultFlags) {
  NETMAX_EXPECT_OK(Init({"--faults=slow@2+6x4:w1;leave@4:w2;join@9:w2",
                         "--peer-policy=timeout"}));
  NETMAX_EXPECT_OK(Init({"--faults=seed:42", "--peer-policy=wait"}));
  NETMAX_EXPECT_OK(Init({"--checkpoint-every=0.5",
                         "--checkpoint-path=/tmp/x.ckpt"}));
}

TEST(InitBenchTest, MalformedValuesNameTheOffendingText) {
  for (const std::string arg :
       {"--threads=4x", "--shards=-1", "--event-queue=heap",
        "--checkpoint-at=soon", "--checkpoint-at=-1",
        "--faults=explode@1:w0", "--faults=seed:4x", "--peer-policy=retry",
        "--checkpoint-every=never"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
  }
}

TEST(InitBenchTest, ParsesTheScaleFlags) {
  NETMAX_EXPECT_OK(Init({"--event-queue=calendar", "--workers=1024",
                         "--topology=hier:64"}));
  EXPECT_EQ(WorkersOverride(), 1024);
  NETMAX_EXPECT_OK(Init({"--event-queue=vector", "--topology=complete"}));
  NETMAX_EXPECT_OK(Init({"--workers=2"}));
  // Reparsing resets the worker override like every other override.
  NETMAX_EXPECT_OK(Init({}));
  EXPECT_EQ(WorkersOverride(), -1);
}

TEST(InitBenchTest, RejectsUnknownEventQueueNamingTheSpellings) {
  const StatusOr<bool> init = Init({"--event-queue=pagoda"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--event-queue=pagoda"),
            std::string::npos);
  EXPECT_NE(init.status().message().find("expected vector or calendar"),
            std::string::npos);
}

TEST(InitBenchTest, RejectsWorkerCountsBelowTwo) {
  for (const std::string arg :
       {"--workers=0", "--workers=1", "--workers=-4", "--workers=8x"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
    EXPECT_NE(init.status().message().find("worker count >= 2"),
              std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, RejectsMalformedTopologySpecsWithTheGrammar) {
  for (const std::string arg :
       {"--topology=ring", "--topology=hier:", "--topology=hier:0"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
    EXPECT_NE(
        init.status().message().find("expected complete or hier:<cluster_size>"),
        std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, CheckpointAtRequiresAPath) {
  const StatusOr<bool> init = Init({"--checkpoint-at=5"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--checkpoint-path"),
            std::string::npos);

  NETMAX_EXPECT_OK(
      Init({"--checkpoint-at=5", "--checkpoint-path=/tmp/x.ckpt"}));
}

TEST(InitBenchTest, CheckpointEveryRequiresAPath) {
  const StatusOr<bool> init = Init({"--checkpoint-every=0.5"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--checkpoint-path"),
            std::string::npos);
}

// Hand-made loss curves falling linearly from 2 to 1: NetMax (last, by
// convention) gets there in 10 s and finishes in 40 s, the baseline takes
// 30 s and 60 s. The common threshold 1.08 is crossed 92% of the way down,
// at 9.2 s and 27.6 s. Both readings are printed side by side.
TEST(PrintSpeedupsTest, PrintsTheTimeToLossReadingBesideTheEqualWorkRatio) {
  NamedResult baseline;
  baseline.name = "baseline";
  baseline.result.loss_vs_time = {{0.0, 2.0}, {30.0, 1.0}, {60.0, 1.0}};
  baseline.result.total_virtual_seconds = 60.0;
  NamedResult netmax;
  netmax.name = "netmax";
  netmax.result.loss_vs_time = {{0.0, 2.0}, {10.0, 1.0}, {40.0, 1.0}};
  netmax.result.total_virtual_seconds = 40.0;
  std::ostringstream os;
  PrintSpeedups(os, "speedups", {baseline, netmax});
  const std::string out = os.str();
  EXPECT_NE(out.find("algorithm,time_to_loss_s,total_time_s,loss_speedup,"
                     "netmax_speedup"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("baseline,27.6,60.0,3.00,1.50"), std::string::npos)
      << out;
  EXPECT_NE(out.find("netmax,9.2,40.0,1.00,1.00"), std::string::npos) << out;
}

TEST(RunAlgorithmsTest, UnknownAlgorithmIsNotFound) {
  NETMAX_EXPECT_OK(Init({}));
  core::ExperimentConfig config;
  config.dataset.num_train = 64;
  config.dataset.num_test = 16;
  config.num_workers = 2;
  config.max_epochs = 1;
  config.threads = 1;
  const auto results = RunAlgorithms({"no-such-algorithm"}, config);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
}

TEST(RunAlgorithmsTest, RunErrorsArePrefixedWithTheRunName) {
  NETMAX_EXPECT_OK(Init({}));
  core::ExperimentConfig config;
  config.num_workers = 0;  // invalid: Validate rejects it
  const auto results = RunAlgorithms({"gossip"}, config);
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("gossip"), std::string::npos);
}

TEST(RunConfigsTest, SizeMismatchIsInvalidArgument) {
  NETMAX_EXPECT_OK(Init({}));
  const auto results =
      RunConfigs("gossip", {core::ExperimentConfig{}}, {"a", "b"});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace netmax::bench
