#ifndef NETMAX_NET_EVENT_SIM_H_
#define NETMAX_NET_EVENT_SIM_H_

// Deterministic discrete-event simulator with a virtual clock and a
// two-phase compute/commit event model.
//
// All decentralized-training algorithms in this repo run inside this
// simulator: compute and communication delays are scheduled as events, so
// "iteration time = max{compute, communication}" (paper Section II-B) and the
// asynchrony between workers fall out of the event ordering. Ties in event
// time are broken by insertion order, which makes every run bit-reproducible.
//
// Events come in two kinds:
//
//  * Plain events (ScheduleAt): an opaque callback, always run on the
//    simulator thread in (time, sequence) order.
//  * Compute events (ScheduleCompute): a pure `compute` half paired with a
//    `commit` half. The compute half may touch ONLY the state owned by its
//    `worker_key` (model parameters read-only, gradient/workspace scratch
//    read-write) plus immutable shared state; it must not query Now(), draw
//    random numbers, or write anything another worker's compute reads. The
//    commit half runs on the simulator thread, strictly in (time, sequence)
//    order, and receives the compute half's result; all bookkeeping, RNG
//    draws, parameter updates, and scheduling of follow-up events belong
//    there.
//
// How compute halves are evaluated is an execution detail, decided by the
// pool handed to set_pool:
//
//  * No pool (the default, threads == 1): every event runs inline at its
//    turn. The reference semantics.
//  * A pool: RunUntilIdle scans the longest prefix of pending compute events
//    with pairwise-distinct worker keys (the frontier), evaluates it on the
//    pool behind a barrier, then drains the batch in (time, sequence) order.
//    A speculation invalidated by an earlier commit is re-dispatched onto
//    the pool once the invalidating handler returns (the second pass); a
//    halt discards every uncommitted speculation.
//
// Both paths are bit-identical under one soundness contract: any callback or
// commit that writes state some compute half might read MUST call
// NotifyStateWrite(worker_key) for the owning key BEFORE performing the
// write. The pooled path then discards (and later re-dispatches) any compute
// result it evaluated against the pre-write state, first waiting out an
// in-flight evaluation so the caller's write cannot race its reads.
//
// One asymmetry to respect: a speculated compute half's scratch writes (the
// worker's gradient buffer, workspace) may land before earlier-ordered events
// run. While a worker has a compute event pending, no OTHER event may read
// that worker's scratch — only the paired commit (and events it schedules
// afterwards, e.g. a parameter-server upload consuming the gradient) may.
// Engines satisfy this naturally by keeping at most one outstanding compute
// event per worker and consuming scratch only downstream of its commit; new
// engines must preserve it.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "net/event_queue.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::net {

// --- Checkpointable event descriptions --------------------------------------
//
// Closures cannot be serialized, so checkpointing the queue relies on each
// engine tagging every event it schedules with a reified description (an
// EventPayload, defined beside SimEvent in event_queue.h): a small
// engine-defined `tag` naming the event kind plus the doubles its closure
// captured. At restore time the engine's rebuilder maps the saved
// description back to closures identical to the ones it schedules live.

// One pending event as captured by SaveQueue: full (time, sequence) identity
// plus the engine payload. Restoring with the exact saved sequence numbers is
// what keeps post-restore tie-breaking bit-identical to the original run.
struct SavedEvent {
  double time = 0.0;
  int64_t sequence = 0;
  int worker_key = -1;  // -1: plain callback event
  EventPayload payload;
};

// Closures rebuilt from one SavedEvent. Plain events (worker_key < 0) set
// only `plain`; compute events set `compute` and `commit`.
struct RebuiltEvent {
  SimEvent::Callback plain;
  SimEvent::ComputeFn compute;
  SimEvent::CommitFn commit;
};

// Maps a SavedEvent back to live closures; returns an error for unknown tags
// or malformed args (a corrupted or version-skewed checkpoint).
using EventRebuilder = std::function<StatusOr<RebuiltEvent>(const SavedEvent&)>;

// Diagnostics of the pooled path (all zero without a pool). Excluded from the
// bit-identity contract, which covers simulation outputs only.
struct ExecutionStats {
  // Frontier batches that put at least two compute halves in flight.
  int64_t parallel_batches = 0;
  // Compute halves evaluated ahead of their turn (frontier members).
  int64_t computes_speculated = 0;
  // Invalidated speculations re-dispatched onto the pool after the
  // invalidating handler returned (double invalidations re-count).
  int64_t computes_redispatched = 0;
  // Inline recomputes of an invalidated speculation on the simulator thread —
  // a defensive fallback that is unreachable (every invalidated in-flight
  // speculation gets a re-dispatch entry), asserted to stay zero by the
  // determinism tests.
  int64_t computes_recomputed = 0;
};

class EventSimulator {
 public:
  // Inline-storage closures (see SimEvent / common/small_fn.h): scheduling
  // an event whose captures fit the inline capacity never allocates.
  using Callback = SimEvent::Callback;
  // Compute half: returns a scalar payload (engines return the batch loss)
  // that is handed to the paired commit half.
  using ComputeFn = SimEvent::ComputeFn;
  using CommitFn = SimEvent::CommitFn;

  EventSimulator();
  EventSimulator(const EventSimulator&) = delete;
  EventSimulator& operator=(const EventSimulator&) = delete;

  // Current virtual time in seconds.
  double Now() const { return now_; }

  // Schedules `callback` at absolute virtual time `time` (>= Now()). A
  // relative delay is `Now() + delay`. `payload` is the event's
  // checkpointable description (see EventPayload above); engines that
  // support checkpoint/restore tag every event, and SaveQueue refuses an
  // untagged one.
  void ScheduleAt(double time, Callback callback, EventPayload payload = {});

  // Schedules a two-phase compute/commit event at absolute virtual time
  // `time` (>= Now()). `worker_key` (>= 0) names the state partition the
  // compute half touches; two compute halves with the same key are never
  // evaluated concurrently, so adversarial same-key interleavings degrade to
  // serial order instead of racing.
  void ScheduleCompute(double time, int worker_key, ComputeFn compute,
                       CommitFn commit, EventPayload payload = {});

  // Declares that the caller (an event callback or commit half) is ABOUT to
  // write state owned by `worker_key` that a compute half may read — model
  // parameters, chiefly; the call must precede the write. On the pooled path
  // it invalidates any not-yet-committed evaluation for that key
  // (re-dispatching it onto the pool after the current handler returns) and
  // blocks until an in-flight evaluation finishes so the caller's write
  // cannot race its reads. Redundant calls (own key, keys without pending
  // computes) are harmless; forgetting a call breaks parallel determinism,
  // so write sites should over- rather than under-notify. A no-op without a
  // speculation batch in flight (always, without a pool).
  void NotifyStateWrite(int worker_key);

  // Hands RunUntilIdle a pool to speculate compute halves on; nullptr (the
  // default) keeps every event inline. The pool is borrowed, must outlive
  // the simulator's runs, and must not be swapped while a run is in
  // progress.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Swaps in a different priority-queue implementation (see event_queue.h).
  // Queue choice never changes simulation output — the (time, sequence)
  // order is a strict total order — only wall-clock scaling. Must be called
  // while the queue is empty (before scheduling, or after a completed run).
  void ReplaceQueue(std::unique_ptr<EventQueue> queue);
  EventQueueKind queue_kind() const { return queue_->kind(); }
  std::string_view queue_name() const { return queue_->name(); }

  // Pops and runs the earliest event inline (compute half on this thread,
  // then commit). Returns false when no events remain. Callers driving the
  // queue by hand get serial semantics.
  bool Step();

  // Runs until no events remain — speculating on the pool when one is set —
  // and returns the number of events processed.
  int64_t RunUntilIdle();

  bool empty() const { return queue_->empty(); }
  int64_t num_events_processed() const { return processed_; }
  int64_t next_sequence() const { return next_sequence_; }

  // --- halt (crash faults) -------------------------------------------------

  // Requests that the run stop at the current virtual time: the event whose
  // handler calls this is the last one applied. RunUntilIdle checks the flag
  // after each handler, discards every uncommitted speculation and all
  // pending events, and returns; the clock stays at the halting event's
  // time. Deterministic by construction — the halting event has a fixed
  // (time, sequence) position, so serial and pooled runs stop after the
  // exact same prefix of commits.
  void RequestHalt() { halt_requested_ = true; }

  // --- checkpoint support --------------------------------------------------

  // Snapshots the pending queue in dispatch order. Fails with
  // kFailedPrecondition if any pending event is untagged — the caller (an
  // engine that opted into checkpointing) scheduled an event without a
  // payload.
  StatusOr<std::vector<SavedEvent>> SaveQueue() const;

  // Repopulates an EMPTY queue from `events`, mapping each through
  // `rebuilder`. Times and sequence numbers are restored exactly as saved
  // (bypassing Insert), so relative (time, sequence) ordering — and with it
  // every tie-break — replays bit-identically. Call RestoreClock first:
  // events are validated against the restored clock (time >= Now(),
  // sequence < next_sequence(), no duplicate sequences).
  Status RestoreQueue(const std::vector<SavedEvent>& events,
                      const EventRebuilder& rebuilder);

  // Restores the clock and counters saved alongside the queue.
  void RestoreClock(double now, int64_t next_sequence, int64_t processed);

  const ExecutionStats& execution_stats() const { return stats_; }

 private:
  static constexpr int kNoKey = kNoWorkerKey;

  // One frontier member. `value` is ready once the barrier returns;
  // invalidation replaces it through a Redispatch entry.
  struct Speculation {
    int64_t sequence = 0;
    double time = 0.0;
    ComputeFn compute;  // copy, for re-dispatch
    double value = 0.0;
  };
  // One invalidated compute half re-dispatched onto the pool for the second
  // pass. Heap-allocated so the pooled task's writes target a stable address;
  // `done` orders those writes before any read of `value` (and before any
  // state write by a second invalidator).
  struct Redispatch {
    double value = 0.0;
    bool invalidated = false;  // a later write dirtied the key again
    std::future<void> done;
  };

  void Insert(SimEvent event);
  // Scans the frontier and evaluates it on the pool behind a barrier; a
  // frontier of fewer than two members is left to run inline.
  void SpeculateFrontier();
  // Commits the batch value for (sequence, key) into *value, routing
  // invalidated keys through their re-dispatch entry. False: run the compute
  // half inline.
  bool TakeSpeculation(int64_t sequence, int worker_key, double* value);
  // Submits the second-pass recomputes queued by NotifyStateWrite during the
  // handler that just returned, in (time, sequence) order of their events.
  void FlushRedispatches();
  // Halt path: waits out the second-pass tasks (their writes target entries
  // destroyed here) and drops every uncommitted speculation.
  void DiscardSpeculations();

  double now_ = 0.0;
  int64_t next_sequence_ = 0;
  int64_t processed_ = 0;
  bool halt_requested_ = false;
  // Pending events, behind the pluggable EventQueue seam. Defaults to the
  // calendar queue; ReplaceQueue swaps in the sorted-vector reference.
  std::unique_ptr<EventQueue> queue_;

  // --- pooled path (all empty without a pool) ---
  ThreadPool* pool_ = nullptr;
  ExecutionStats stats_;
  // Speculations of the current batch awaiting their turn, by worker key
  // (frontier keys are pairwise distinct). A commit erases its entry.
  std::unordered_map<int, Speculation> inflight_;
  // Keys whose speculation a commit since the batch formed invalidated.
  std::unordered_set<int> dirty_keys_;
  // Second-pass state: keys queued by the current handler (flushed right
  // after it returns) and the in-flight re-dispatches by key.
  std::vector<int> pending_redispatch_keys_;
  std::unordered_map<int, std::unique_ptr<Redispatch>> redispatches_;
};

}  // namespace netmax::net

#endif  // NETMAX_NET_EVENT_SIM_H_
