#ifndef NETMAX_NET_FAULT_SCHEDULE_H_
#define NETMAX_NET_FAULT_SCHEDULE_H_

// Deterministic worker-lifecycle fault schedules for the event simulator.
//
// A FaultSchedule is an ordered list of lifecycle events — leave, join,
// crash, slowdown — that the experiment harness injects into the simulation
// as first-class virtual-time events. Because injection goes through the
// simulator's ordinary (time, sequence) scheduling, a fault run is exactly as
// bit-reproducible as a fault-free one: the same schedule produces the same
// RunResult on either dispatch path, thread count, and shard bound.
//
// Schedules come from two sources:
//  * Parse() — an explicit scripted spec (the `--faults=` flag grammar):
//      entries separated by ';', each one of
//        leave@T:wN          worker N leaves (gracefully) at virtual time T
//        join@T:wN           worker N (re)joins at virtual time T
//        crash@T             the whole run halts at virtual time T
//        slow@T+DURxF:wN     worker N computes F x slower for DUR seconds
//      e.g. "slow@2+6x4:w1;leave@4:w2;join@9:w2". Times must be
//      non-decreasing across entries.
//  * FromSeed() — a seed-derived churn/straggler mix (slowdowns and paired
//    leave/rejoin, never crashes) for randomized robustness sweeps that must
//    still replay exactly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace netmax::net {

enum class FaultKind {
  kLeave,     // graceful: in-flight work completes, no new work starts
  kJoin,      // the worker resumes scheduling new work
  kCrash,     // whole-run halt: pending events are dropped at this time
  kSlowdown,  // worker's compute time is multiplied by `factor` for `duration`
};

// The flag spelling of `kind` ("leave", "join", "crash", "slow").
std::string_view FaultKindName(FaultKind kind);

struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kLeave;
  int worker = -1;        // ignored (and -1) for kCrash
  double factor = 1.0;    // kSlowdown only; > 1 slows the worker down
  double duration = 0.0;  // kSlowdown only; factor reverts at time + duration
};

// The per-entry rule FaultSchedule::Validate applies (everything but the
// time order): a known kind, a finite non-negative time, a worker in
// [0, num_workers) unless the kind is kCrash, and for kSlowdown a finite
// factor > 0 and a finite duration > 0. Fault events restored from a
// checkpoint are held to it too. InvalidArgument starting with `where`
// otherwise.
Status ValidateFaultEvent(const FaultEvent& event, int num_workers,
                          std::string_view where);

class FaultSchedule {
 public:
  FaultSchedule() = default;

  // Parses the scripted grammar above. Checks syntax and per-entry value
  // sanity only; worker-id range and time monotonicity are config-dependent
  // and checked by Validate().
  static StatusOr<FaultSchedule> Parse(std::string_view spec);

  // Derives `count` faults from `seed`: each is either a slowdown or a
  // leave/rejoin pair, with times inside (0.1, 0.75) x horizon so the churn
  // lands well within the run. Never emits a crash. The result is fully
  // determined by the arguments and already Validate()-clean for any
  // num_workers >= the one given.
  static FaultSchedule FromSeed(uint64_t seed, int num_workers, double horizon,
                                int count);

  // Config-time validation: every entry passes ValidateFaultEvent and times
  // are non-decreasing. InvalidArgument with the offending entry otherwise.
  Status Validate(int num_workers) const;

  // Re-renders the schedule in the Parse() grammar (round-trips exactly for
  // times that print losslessly; used for logging and tests).
  std::string ToSpec() const;

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  void push_back(const FaultEvent& event) { events_.push_back(event); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace netmax::net

#endif  // NETMAX_NET_FAULT_SCHEDULE_H_
