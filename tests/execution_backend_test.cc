// The ExecutionBackend seam (net/event_sim.h + core/execution_backend.h):
// the simulator delegates dispatch to whatever backend is attached, and
// every backend must keep commits in strict (time, sequence) order and
// results bit-identical to serial dispatch. The speculative backend's
// invalidation and re-dispatch protocol is covered in event_sim_test.

#include "core/execution_backend.h"

#include <chrono>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "net/event_sim.h"

namespace netmax::core {
namespace {

using net::EventSimulator;

// --- the seam itself --------------------------------------------------------

// A fake backend that records every call the simulator forwards to it and
// runs all computes inline: proves the seam (RunUntilIdle delegation,
// NotifyStateWrite forwarding, the SpeculationProvider round trip) without
// any threading.
class RecordingBackend : public net::ExecutionBackend {
 public:
  std::string_view name() const override { return "recording"; }

  void Dispatch(EventSimulator& /*sim*/) override { ++dispatch_calls; }

  int64_t DrainCommits(EventSimulator& sim) override {
    const EventSimulator::SpeculationProvider provider =
        [this](int64_t /*sequence*/, int worker_key, double* value) {
          provided_keys.push_back(worker_key);
          *value = 1000.0 + worker_key;  // a value the compute never returns
          return true;
        };
    return sim.StepWith(provider) ? 1 : 0;
  }

  void OnStateWrite(EventSimulator& /*sim*/, int worker_key) override {
    notified_keys.push_back(worker_key);
  }

  int dispatch_calls = 0;
  std::vector<int> provided_keys;
  std::vector<int> notified_keys;
};

TEST(ExecutionBackendSeamTest, SimulatorDelegatesToAttachedBackend) {
  EventSimulator sim;
  RecordingBackend backend;
  sim.set_backend(&backend);
  std::vector<double> committed;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/7, [] { return -1.0; },
      [&](double value) {
        committed.push_back(value);
        sim.NotifyStateWrite(3);
      });
  sim.ScheduleAt(2.0, [&] { sim.NotifyStateWrite(5); });
  sim.RunUntilIdle();
  // The provider's value reached the commit (the compute never ran), both
  // notifies were forwarded, and Dispatch ran before each drain step.
  EXPECT_EQ(committed, (std::vector<double>{1007.0}));
  EXPECT_EQ(backend.provided_keys, (std::vector<int>{7}));
  EXPECT_EQ(backend.notified_keys, (std::vector<int>{3, 5}));
  EXPECT_EQ(backend.dispatch_calls, 2);
}

TEST(ExecutionBackendSeamTest, NoBackendMeansSerialAndNotifyIsANoOp) {
  EventSimulator sim;
  int compute_runs = 0;
  double committed = 0.0;
  sim.ScheduleCompute(
      1.0, 0,
      [&] {
        ++compute_runs;
        return 4.0;
      },
      [&](double value) {
        sim.NotifyStateWrite(0);  // must be harmless without a backend
        committed = value;
      });
  sim.RunUntilIdle();
  EXPECT_EQ(compute_runs, 1);
  EXPECT_DOUBLE_EQ(committed, 4.0);
  EXPECT_EQ(sim.computes_speculated(), 0);
}

TEST(ExecutionBackendSeamTest, FactoryDegradesToSerialWithoutAPool) {
  EXPECT_EQ(MakeExecutionBackend(/*pool=*/nullptr)->name(), "serial");
  ThreadPool pool(2);
  EXPECT_EQ(MakeExecutionBackend(&pool)->name(), "speculative");
}

TEST(SerialBackendTest, RunsEverythingInlineInOrder) {
  EventSimulator sim;
  SerialBackend backend;
  sim.set_backend(&backend);
  std::vector<int> order;
  for (int key = 0; key < 4; ++key) {
    sim.ScheduleCompute(
        /*time=*/static_cast<double>(4 - key), key,
        [key] { return static_cast<double>(key); },
        [&order](double value) { order.push_back(static_cast<int>(value)); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(backend.stats().computes_speculated, 0);
  EXPECT_EQ(backend.stats().parallel_batches, 0);
}

// --- cross-backend bit-identity on a chained mini workload ------------------

// Per-key compute chains whose commits couple neighboring keys (like
// consensus pulls) with skewed per-key sleep times: the event trace must be
// identical across serial dispatch and the speculative frontier at every
// pool size.
std::vector<double> RunChainedWorkload(net::ExecutionBackend* backend) {
  EventSimulator sim;
  sim.set_backend(backend);
  std::vector<double> state(4, 1.0);
  std::vector<double> trace;
  std::function<void(int, int)> chain = [&](int key, int remaining) {
    if (remaining == 0) return;
    sim.ScheduleComputeAfter(
        0.5 + 0.25 * key, key,
        [&state, key] {
          std::this_thread::sleep_for(std::chrono::microseconds(
              key == 1 ? 500 : 50));  // key 1 is the straggler
          return state[static_cast<size_t>(key)] * 3.0;
        },
        [&, key, remaining](double value) {
          trace.push_back(value);
          const int peer = (key + 1) % 4;
          sim.NotifyStateWrite(key);
          sim.NotifyStateWrite(peer);
          state[static_cast<size_t>(key)] =
              0.5 * (value + state[static_cast<size_t>(peer)]);
          state[static_cast<size_t>(peer)] += 0.125;
          chain(key, remaining - 1);
        });
  };
  for (int key = 0; key < 4; ++key) chain(key, 6);
  sim.RunUntilIdle();
  return trace;
}

TEST(ExecutionBackendDeterminismTest, AllBackendsProduceTheSerialTrace) {
  const std::vector<double> reference = RunChainedWorkload(nullptr);
  ThreadPool small_pool(1);
  ThreadPool pool(4);
  std::vector<std::unique_ptr<net::ExecutionBackend>> backends;
  backends.push_back(std::make_unique<SerialBackend>());
  backends.push_back(std::make_unique<SpeculativeBackend>(&small_pool));
  backends.push_back(std::make_unique<SpeculativeBackend>(&pool));
  for (const auto& backend : backends) {
    const std::vector<double> trace = RunChainedWorkload(backend.get());
    ASSERT_EQ(trace.size(), reference.size()) << backend->name();
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i], reference[i]) << backend->name() << "[" << i << "]";
    }
    EXPECT_EQ(backend->stats().computes_recomputed, 0) << backend->name();
  }
}

}  // namespace
}  // namespace netmax::core
