#ifndef NETMAX_CORE_EXECUTION_BACKEND_H_
#define NETMAX_CORE_EXECUTION_BACKEND_H_

// Concrete execution backends for the event simulator, plus the factory the
// experiment harness uses. The abstract net::ExecutionBackend interface is
// declared in net/event_sim.h, beside the simulator it drives (the net layer
// cannot depend on core).
//
// Two strategies, bit-identical to each other by the soundness contract in
// net/event_sim.h. Which one runs follows from the thread count alone:
//
//  * SerialBackend — every event runs inline at its turn on the simulator
//    thread. The reference semantics, and the backend of every run without
//    a thread pool (threads == 1).
//  * SpeculativeBackend — collect the longest prefix of pending compute
//    events with pairwise-distinct worker keys, evaluate them concurrently
//    on the pool behind a barrier, then drain the whole batch in order.
//    Invalidated speculations are re-dispatched onto the pool in a second
//    pass instead of recomputing inline. The backend of every pooled run.

#include <cstdint>
#include <future>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/event_sim.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::core {

// The seam interface, re-exported under the layer that implements it.
using net::ExecutionBackend;
using net::ExecutionStats;

// Builds the backend for one simulator run: SpeculativeBackend over `pool`,
// or SerialBackend when `pool` is null (there is nothing to overlap with).
// `pool` is borrowed and must outlive the backend.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ThreadPool* pool);

// Fully serial dispatch: Dispatch is a no-op and every compute half runs
// inline at its turn. Stats stay zero.
class SerialBackend : public ExecutionBackend {
 public:
  std::string_view name() const override { return "serial"; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;
};

// Frontier speculation with a barrier: at most one
// compute half per distinct worker key joins a parallel batch, the batch is
// evaluated to completion on the pool, then drained in order. A same-key
// duplicate ends the frontier scan, so adversarial interleavings degrade to
// serial order.
class SpeculativeBackend : public ExecutionBackend {
 public:
  explicit SpeculativeBackend(ThreadPool* pool);

  std::string_view name() const override { return "speculative"; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;

 protected:
  void OnHalt(net::EventSimulator& sim) override;

 private:
  // One frontier member, evaluated by the Dispatch barrier. `value` is ready
  // once Dispatch returns; invalidation replaces it through `redispatch`.
  struct Speculation {
    int64_t sequence = 0;
    double time = 0.0;
    net::EventSimulator::ComputeFn compute;  // copy, for re-dispatch
    double value = 0.0;
  };
  // One invalidated compute half re-dispatched onto the pool for the second
  // speculation pass. Heap-allocated so the pooled task's writes target a
  // stable address; `done` orders those writes before any read of `value`
  // (and before any state write by a second invalidator).
  struct Redispatch {
    double value = 0.0;
    bool invalidated = false;  // a later write dirtied the key again
    std::future<void> done;
  };

  // SpeculationProvider body: commits the batch value for (sequence, key),
  // routing invalidated keys through their re-dispatch entry.
  bool ProvideValue(int64_t sequence, int worker_key, double* value);
  // Submits the second-pass recomputes queued by OnStateWrite during the
  // handler that just returned, in (time, sequence) order of their events.
  void FlushRedispatches();

  ThreadPool* pool_;
  // Speculations of the current batch awaiting their turn, by worker key
  // (frontier keys are pairwise distinct). Drain erases an entry when its
  // event commits.
  std::unordered_map<int, Speculation> inflight_;
  // Keys whose speculation a commit since the batch formed invalidated.
  std::unordered_set<int> dirty_keys_;
  // Second-pass state: keys queued by the current handler (flushed right
  // after it returns) and the in-flight re-dispatches by key.
  std::vector<int> pending_redispatch_keys_;
  std::unordered_map<int, std::unique_ptr<Redispatch>> redispatches_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_EXECUTION_BACKEND_H_
