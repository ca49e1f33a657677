#include "net/event_sim.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/thread_pool.h"

namespace netmax::net {
namespace {

// Frontier scan bound: how many queue entries one scan examines while
// looking for compute halves to run ahead (plain events count toward the
// cap). Bounds the cost of skipping over plain events.
constexpr int64_t kMaxScannedEvents = 256;

}  // namespace

EventSimulator::EventSimulator()
    : queue_(MakeEventQueue(EventQueueKind::kCalendar)) {}

void EventSimulator::ReplaceQueue(std::unique_ptr<EventQueue> queue) {
  NETMAX_CHECK(queue != nullptr);
  NETMAX_CHECK(queue_->empty())
      << "ReplaceQueue requires an empty event queue";
  queue_ = std::move(queue);
}

void EventSimulator::Insert(SimEvent event) {
  NETMAX_CHECK_GE(event.time, now_) << "cannot schedule into the past";
  event.sequence = next_sequence_++;
  queue_->Push(std::move(event));
}

void EventSimulator::ScheduleAt(double time, Callback callback,
                                EventPayload payload) {
  NETMAX_CHECK(callback != nullptr);
  SimEvent event;
  event.time = time;
  event.plain = std::move(callback);
  event.payload = std::move(payload);
  Insert(std::move(event));
}

void EventSimulator::ScheduleCompute(double time, int worker_key,
                                     ComputeFn compute, CommitFn commit,
                                     EventPayload payload) {
  NETMAX_CHECK_GE(worker_key, 0) << "worker_key must be non-negative";
  NETMAX_CHECK(compute != nullptr);
  NETMAX_CHECK(commit != nullptr);
  SimEvent event;
  event.time = time;
  event.worker_key = worker_key;
  event.compute = std::move(compute);
  event.commit = std::move(commit);
  event.payload = std::move(payload);
  Insert(std::move(event));
}

bool EventSimulator::Step() {
  if (queue_->empty()) return false;
  // Pop by value so the handlers may schedule new events.
  SimEvent event = queue_->PopNext();
  now_ = event.time;
  ++processed_;
  if (event.compute != nullptr) {
    double value;
    if (inflight_.empty() ||
        !TakeSpeculation(event.sequence, event.worker_key, &value)) {
      value = event.compute();
    }
    event.commit(value);
  } else {
    event.plain();
  }
  return true;
}

int64_t EventSimulator::RunUntilIdle() {
  const int64_t processed_before = processed_;
  while (!halt_requested_ && !queue_->empty()) {
    // Between batches, the pooled path speculates the next frontier; the
    // steps below then drain it strictly in (time, sequence) order. Commits
    // may schedule new events, which run inline at their correct position,
    // even before later frontier members.
    if (pool_ != nullptr && inflight_.empty()) SpeculateFrontier();
    Step();
    // The second pass starts here, after the handler's writes are complete.
    FlushRedispatches();
  }
  if (halt_requested_) {
    // Crash fault: nothing uncommitted may outlive the halt (pooled tasks
    // reference engine state the caller is about to tear down), and
    // discarding it cannot perturb the result because it never committed.
    DiscardSpeculations();
    queue_->Clear();
  }
  NETMAX_CHECK(inflight_.empty()) << "speculated event vanished from queue";
  return processed_ - processed_before;
}

// --- pooled path -------------------------------------------------------------

void EventSimulator::SpeculateFrontier() {
  NETMAX_CHECK(redispatches_.empty())
      << "second-pass re-dispatch outlived its batch";
  // Frontier scan: the longest prefix of compute events with pairwise-
  // distinct worker keys, bounded so the ordered drain stays short relative
  // to the compute phase (the caller joins the barrier, hence +1). Plain
  // events are skipped, not barriers: they run at their exact position
  // during the drain, and any state they write is covered by
  // NotifyStateWrite. A duplicate key ends the scan so no two speculations
  // ever target the same state partition.
  const size_t frontier_cap = 4 * (static_cast<size_t>(pool_->num_threads()) + 1);
  std::vector<Speculation> frontier;
  std::vector<int> frontier_keys;
  std::unordered_set<int> seen_keys;
  queue_->VisitInOrder(kMaxScannedEvents, [&](const SimEvent& event) {
    if (event.compute == nullptr) return EventQueue::VisitAction::kContinue;
    if (frontier.size() >= frontier_cap ||
        !seen_keys.insert(event.worker_key).second) {
      return EventQueue::VisitAction::kStop;
    }
    frontier.push_back(
        Speculation{event.sequence, event.time, event.compute, 0.0});
    frontier_keys.push_back(event.worker_key);
    return EventQueue::VisitAction::kContinue;
  });
  if (frontier.size() < 2) return;  // the drain runs it inline

  // Barrier compute: no commit runs in parallel with this phase, and each
  // compute half touches only its own worker's state, so the phase is
  // race-free by construction.
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

bool EventSimulator::TakeSpeculation(int64_t sequence, int worker_key,
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
    // the re-dispatch, or NotifyStateWrite would have invalidated and
    // replaced it). The inline fallback only covers the defensive no-entry
    // case and is expected to stay cold.
    const auto redispatch = redispatches_.find(worker_key);
    if (redispatch != redispatches_.end() && !redispatch->second->invalidated) {
      redispatch->second->done.wait();
      *value = redispatch->second->value;
    } else {
      ++stats_.computes_recomputed;
      provided = false;
    }
    if (redispatch != redispatches_.end()) redispatches_.erase(redispatch);
  }
  inflight_.erase(it);
  return provided;
}

void EventSimulator::NotifyStateWrite(int worker_key) {
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

void EventSimulator::FlushRedispatches() {
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

void EventSimulator::DiscardSpeculations() {
  for (auto& [key, redispatch] : redispatches_) redispatch->done.wait();
  redispatches_.clear();
  inflight_.clear();
  dirty_keys_.clear();
  pending_redispatch_keys_.clear();
}

StatusOr<std::vector<SavedEvent>> EventSimulator::SaveQueue() const {
  std::vector<SavedEvent> events;
  events.reserve(static_cast<size_t>(queue_->size()));
  Status status = Status::Ok();
  queue_->VisitInOrder(
      queue_->size(), [&events, &status](const SimEvent& event) {
        if (event.payload.tag < 0) {
          status = FailedPreconditionError(
              "cannot checkpoint: pending event at t=" +
              std::to_string(event.time) + " (sequence " +
              std::to_string(event.sequence) +
              ") was scheduled without a payload tag");
          return EventQueue::VisitAction::kStop;
        }
        events.push_back(SavedEvent{event.time, event.sequence,
                                    event.worker_key, event.payload});
        return EventQueue::VisitAction::kContinue;
      });
  NETMAX_RETURN_IF_ERROR(status);
  return events;
}

Status EventSimulator::RestoreQueue(const std::vector<SavedEvent>& events,
                                    const EventRebuilder& rebuilder) {
  if (!queue_->empty()) {
    return FailedPreconditionError(
        "RestoreQueue requires an empty event queue");
  }
  NETMAX_CHECK(rebuilder != nullptr);
  // Validate before touching the queue, so a failed restore leaves it empty.
  std::vector<int64_t> sequences;
  sequences.reserve(events.size());
  for (const SavedEvent& saved : events) {
    const std::string where = "event tag " + std::to_string(saved.payload.tag) +
                              " (sequence " + std::to_string(saved.sequence) +
                              ")";
    if (!std::isfinite(saved.time) || saved.time < now_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " is not scheduled at a finite time at or "
                                  "after the restored clock");
    }
    if (saved.sequence < 0 || saved.sequence >= next_sequence_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " has a sequence outside the restored "
                                  "counter range");
    }
    sequences.push_back(saved.sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  for (size_t i = 1; i < sequences.size(); ++i) {
    if (sequences[i] == sequences[i - 1]) {
      return InvalidArgumentError(
          "checkpointed queue contains duplicate sequence " +
          std::to_string(sequences[i]));
    }
  }
  std::vector<SimEvent> rebuilt_events;
  rebuilt_events.reserve(events.size());
  for (const SavedEvent& saved : events) {
    const std::string where = "event tag " + std::to_string(saved.payload.tag) +
                              " (sequence " + std::to_string(saved.sequence) +
                              ")";
    NETMAX_ASSIGN_OR_RETURN(RebuiltEvent rebuilt, rebuilder(saved));
    SimEvent event;
    event.time = saved.time;
    event.sequence = saved.sequence;
    event.worker_key = saved.worker_key < 0 ? kNoKey : saved.worker_key;
    event.payload = saved.payload;
    if (event.worker_key == kNoKey) {
      if (rebuilt.plain == nullptr || rebuilt.compute != nullptr ||
          rebuilt.commit != nullptr) {
        return InternalError("rebuilder returned a non-plain closure set for "
                             "plain " +
                             where);
      }
      event.plain = std::move(rebuilt.plain);
    } else {
      if (rebuilt.compute == nullptr || rebuilt.commit == nullptr ||
          rebuilt.plain != nullptr) {
        return InternalError(
            "rebuilder returned an incomplete closure set for compute " +
            where);
      }
      event.compute = std::move(rebuilt.compute);
      event.commit = std::move(rebuilt.commit);
    }
    rebuilt_events.push_back(std::move(event));
  }
  // Sequence numbers are restored exactly as saved (Insert is bypassed), so
  // relative (time, sequence) ordering — and with it every tie-break —
  // replays bit-identically in any queue implementation.
  for (SimEvent& event : rebuilt_events) queue_->Push(std::move(event));
  return Status::Ok();
}

void EventSimulator::RestoreClock(double now, int64_t next_sequence,
                                  int64_t processed) {
  NETMAX_CHECK(queue_->empty()) << "restore the clock before the queue";
  now_ = now;
  next_sequence_ = next_sequence;
  processed_ = processed;
}

}  // namespace netmax::net
