#include "core/execution_backend.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace netmax::core {
namespace {

using net::EventSimulator;

// Dispatch scan bound: how many queue entries a backend examines per
// Dispatch call while looking for compute halves to run ahead (plain events
// count toward the cap). Bounds the cost of skipping over plain events.
constexpr int64_t kMaxScannedEvents = 256;

// Speculative frontier bound: scales with the pool so the ordered drain
// (serial) phase stays short relative to the compute phase. The RunUntilIdle
// caller participates in the compute barrier, hence +1.
int64_t FrontierCap(const ThreadPool& pool) {
  return 4 * (static_cast<int64_t>(pool.num_threads()) + 1);
}

}  // namespace

std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ThreadPool* pool) {
  if (pool == nullptr) return std::make_unique<SerialBackend>();
  return std::make_unique<SpeculativeBackend>(pool);
}

// --- SerialBackend ----------------------------------------------------------

void SerialBackend::Dispatch(EventSimulator& /*sim*/) {}

int64_t SerialBackend::DrainCommits(EventSimulator& sim) {
  return sim.StepWith(nullptr) ? 1 : 0;
}

void SerialBackend::OnStateWrite(EventSimulator& /*sim*/, int /*worker_key*/) {}

// --- SpeculativeBackend -----------------------------------------------------

SpeculativeBackend::SpeculativeBackend(ThreadPool* pool) : pool_(pool) {
  NETMAX_CHECK(pool_ != nullptr) << "SpeculativeBackend needs a pool";
}

void SpeculativeBackend::Dispatch(EventSimulator& sim) {
  if (!inflight_.empty()) return;  // mid-batch: DrainCommits empties it first
  // Frontier scan: the longest prefix of compute events with pairwise-
  // distinct worker keys. Plain events are skipped, not barriers: they run at
  // their exact position during the drain, and any state they write is
  // covered by NotifyStateWrite invalidation. A duplicate key ends the scan
  // so no two speculations ever target the same state partition.
  std::vector<Speculation> frontier;
  std::vector<int> frontier_keys;
  std::unordered_set<int> seen_keys;
  const int64_t frontier_cap = FrontierCap(*pool_);
  sim.ScanPendingComputes(
      kMaxScannedEvents,
      [&](const EventSimulator::PendingComputeView& view) {
        if (static_cast<int64_t>(frontier.size()) >= frontier_cap) {
          return EventSimulator::ScanAction::kStop;
        }
        if (!seen_keys.insert(view.worker_key).second) {
          return EventSimulator::ScanAction::kStop;
        }
        frontier.push_back(
            Speculation{view.sequence, view.time, view.compute, 0.0});
        frontier_keys.push_back(view.worker_key);
        return EventSimulator::ScanAction::kContinue;
      });
  if (frontier.size() < 2) return;  // the drain runs it inline

  // Barrier compute: every frontier compute half runs concurrently on the
  // pool (the caller participates). No commit runs in parallel with this
  // phase, and each compute half touches only its own worker's state, so the
  // phase is race-free by construction.
  ParallelFor(*pool_, static_cast<int>(frontier.size()), [&frontier](int i) {
    Speculation& speculation = frontier[static_cast<size_t>(i)];
    speculation.value = speculation.compute();
  });
  ++stats_.parallel_batches;
  stats_.computes_speculated += static_cast<int64_t>(frontier.size());

  dirty_keys_.clear();
  for (size_t i = 0; i < frontier.size(); ++i) {
    inflight_.emplace(frontier_keys[i], std::move(frontier[i]));
  }
}

int64_t SpeculativeBackend::DrainCommits(EventSimulator& sim) {
  if (inflight_.empty()) {
    // Frontier of one (or an all-plain queue head): plain serial step.
    const bool stepped = sim.StepWith(nullptr);
    return stepped ? 1 : 0;
  }
  // Ordered drain: apply events strictly in (time, sequence) order until
  // every speculation is consumed. Commits may schedule new events (which
  // run inline at their correct position, even before later frontier
  // members) and may dirty keys via NotifyStateWrite (which re-dispatches
  // the affected speculation onto the pool after the handler returns).
  const EventSimulator::SpeculationProvider provider =
      [this](int64_t sequence, int worker_key, double* value) {
        return ProvideValue(sequence, worker_key, value);
      };
  int64_t count = 0;
  while (!inflight_.empty()) {
    NETMAX_CHECK(!sim.empty()) << "speculated event vanished from queue";
    sim.StepWith(provider);
    // Handlers queue invalidated keys; the second speculation pass starts
    // here, after the handler's writes are complete.
    FlushRedispatches();
    ++count;
    // A crash fault mid-batch: stop draining immediately — the uncommitted
    // speculations are discarded by OnHalt, exactly as if they were never
    // evaluated.
    if (sim.halt_requested()) break;
  }
  NETMAX_CHECK(sim.halt_requested() || redispatches_.empty())
      << "second-pass re-dispatch outlived its batch";
  return count;
}

void SpeculativeBackend::OnHalt(EventSimulator& /*sim*/) {
  // Wait out the second-pass tasks (their pooled writes target the
  // heap-stable Redispatch entries being destroyed here), then drop every
  // uncommitted speculation. Nothing here was committed, so discarding it
  // cannot perturb the halted run's result.
  for (auto& [key, redispatch] : redispatches_) redispatch->done.wait();
  redispatches_.clear();
  inflight_.clear();
  dirty_keys_.clear();
  pending_redispatch_keys_.clear();
}

bool SpeculativeBackend::ProvideValue(int64_t sequence, int worker_key,
                                      double* value) {
  const auto it = inflight_.find(worker_key);
  if (it == inflight_.end() || it->second.sequence != sequence) return false;
  bool provided = true;
  if (dirty_keys_.find(worker_key) == dirty_keys_.end()) {
    // Sound speculation: no commit since the frontier formed wrote this
    // worker's compute-visible state, so the pooled result is exactly what
    // an inline run would produce now.
    *value = it->second.value;
  } else {
    // Invalidated speculation: its second-pass re-dispatch carries the value
    // an inline recompute would produce (the key has not been written since
    // the re-dispatch, or OnStateWrite would have invalidated and replaced
    // it). The inline fallback only covers the defensive no-entry case and
    // is expected to stay cold.
    const auto redispatch = redispatches_.find(worker_key);
    if (redispatch != redispatches_.end() && !redispatch->second->invalidated) {
      redispatch->second->done.wait();
      *value = redispatch->second->value;
    } else {
      ++stats_.computes_recomputed;
      provided = false;  // StepWith runs the compute half inline
    }
    if (redispatch != redispatches_.end()) redispatches_.erase(redispatch);
  }
  inflight_.erase(it);
  return provided;
}

void SpeculativeBackend::OnStateWrite(EventSimulator& /*sim*/,
                                      int worker_key) {
  if (inflight_.empty()) return;  // nothing to invalidate
  const auto redispatch = redispatches_.find(worker_key);
  if (redispatch != redispatches_.end() && !redispatch->second->invalidated) {
    // A second-pass recompute for this key is in flight (or done): finish it
    // before the caller's write can race its reads, discard its value, and
    // queue yet another re-dispatch — it will observe the caller's write
    // once the current handler returns.
    redispatch->second->done.wait();
    redispatch->second->invalidated = true;
    pending_redispatch_keys_.push_back(worker_key);
    return;
  }
  if (!dirty_keys_.insert(worker_key).second) return;  // already dirty
  // First invalidation of this key in the batch: if its speculation is still
  // awaiting its turn, queue the second-pass re-dispatch (flushed after the
  // current handler returns, so the recompute reads post-write state).
  // Without a pending speculation the insert alone records the write.
  if (inflight_.find(worker_key) != inflight_.end()) {
    pending_redispatch_keys_.push_back(worker_key);
  }
}

void SpeculativeBackend::FlushRedispatches() {
  if (pending_redispatch_keys_.empty()) return;
  std::vector<int> keys;
  keys.swap(pending_redispatch_keys_);
  // Start the earliest-committing recompute first.
  std::sort(keys.begin(), keys.end(), [this](int a, int b) {
    const Speculation& first = inflight_.at(a);
    const Speculation& second = inflight_.at(b);
    return std::make_pair(first.time, first.sequence) <
           std::make_pair(second.time, second.sequence);
  });
  for (const int key : keys) {
    const auto it = inflight_.find(key);
    NETMAX_CHECK(it != inflight_.end()) << "invalidated speculation vanished";
    auto redispatch = std::make_unique<Redispatch>();
    std::packaged_task<void()> task(
        [compute = it->second.compute, result = redispatch.get()] {
          result->value = compute();
        });
    redispatch->done = pool_->Submit(std::move(task));
    ++stats_.computes_redispatched;
    redispatches_[key] = std::move(redispatch);
  }
}

}  // namespace netmax::core
