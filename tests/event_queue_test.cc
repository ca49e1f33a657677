// The pluggable EventQueue contract: every implementation must pop the exact
// (time, sequence) stream the sorted vector pops — ties included — because
// the golden traces pin that order bit-for-bit. Also covered: the in-order
// non-destructive visit, SaveQueue/RestoreQueue round-trips across queue
// kinds, the flag parser, and the zero-allocation steady state (the
// simulator-core half of the zero-alloc workspace discipline), verified with
// a global operator new/delete override.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/event_queue.h"
#include "net/event_sim.h"

// The counting operator new below forwards to malloc, which defeats the
// compiler's new/free pairing heuristic and yields false mismatch reports.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// Counting overrides. Every form forwards to malloc/free so sanitizer builds
// still see the underlying allocations.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmax::net {
namespace {

constexpr EventQueueKind kAllKinds[] = {EventQueueKind::kSortedVector,
                                        EventQueueKind::kCalendar};

int64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

SimEvent MakeEvent(double time, int64_t sequence) {
  SimEvent event;
  event.time = time;
  event.sequence = sequence;
  return event;
}

TEST(ParseEventQueueKindTest, AcceptsTheDocumentedNames) {
  for (const EventQueueKind kind : kAllKinds) {
    const auto parsed = ParseEventQueueKind(EventQueueKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(ParseEventQueueKindTest, RejectsUnknownNamesWithTheSpellings) {
  const auto parsed = ParseEventQueueKind("pagoda");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string message(parsed.status().message());
  EXPECT_NE(message.find("pagoda"), std::string::npos);
  EXPECT_NE(message.find("expected vector or calendar"), std::string::npos);
  // The deleted heap queues are unknown names now, not aborts.
  for (const std::string_view removed : {"heap", "pairing"}) {
    EXPECT_EQ(ParseEventQueueKind(removed).status().code(),
              StatusCode::kInvalidArgument)
        << removed;
  }
}

TEST(EventQueueTest, NamesAndKindsRoundTrip) {
  for (const EventQueueKind kind : kAllKinds) {
    const auto queue = MakeEventQueue(kind);
    EXPECT_EQ(queue->kind(), kind);
    EXPECT_EQ(queue->name(), EventQueueKindName(kind));
    EXPECT_TRUE(queue->empty());
  }
}

// The property at the heart of the seam: under a randomized interleaving of
// pushes and pops — with heavy time ties, out-of-order arrivals, and clock
// advances — every implementation pops the identical (time, sequence)
// stream. The sorted vector is the reference; the calendar queue must match
// it exactly.
TEST(EventQueueTest, RandomizedPopOrderMatchesSortedVectorIncludingTies) {
  for (const uint64_t seed : {1u, 7u, 1234u}) {
    const auto reference = MakeEventQueue(EventQueueKind::kSortedVector);
    std::vector<std::unique_ptr<EventQueue>> others;
    others.push_back(MakeEventQueue(EventQueueKind::kCalendar));
    Rng rng(seed);
    int64_t next_sequence = 0;
    double base_time = 0.0;
    for (int round = 0; round < 400; ++round) {
      const int pushes = static_cast<int>(rng.UniformInt(0, 8));
      for (int p = 0; p < pushes; ++p) {
        // A coarse grid of times makes ties frequent; sequence stays unique.
        const double time =
            base_time + 0.25 * static_cast<double>(rng.UniformInt(0, 9));
        const int64_t sequence = next_sequence++;
        reference->Push(MakeEvent(time, sequence));
        for (const auto& other : others) {
          other->Push(MakeEvent(time, sequence));
        }
      }
      const int pops =
          static_cast<int>(rng.UniformInt(0, reference->size() / 2 + 1));
      for (int p = 0; p < pops && !reference->empty(); ++p) {
        for (const auto& other : others) {
          ASSERT_EQ(other->NextTime(), reference->NextTime()) << other->name();
        }
        const SimEvent want = reference->PopNext();
        for (const auto& other : others) {
          const SimEvent got = other->PopNext();
          ASSERT_EQ(got.time, want.time) << other->name();
          ASSERT_EQ(got.sequence, want.sequence) << other->name();
        }
        // The simulator never schedules before the popped event's time, so
        // later pushes land at or after it (mirrors Insert's time >= now).
        base_time = want.time;
      }
      for (const auto& other : others) {
        ASSERT_EQ(other->size(), reference->size()) << other->name();
      }
    }
    // Drain what's left: the tails must agree too.
    while (!reference->empty()) {
      const SimEvent want = reference->PopNext();
      for (const auto& other : others) {
        ASSERT_EQ(other->PopNext().sequence, want.sequence) << other->name();
      }
    }
    for (const auto& other : others) {
      EXPECT_TRUE(other->empty()) << other->name();
    }
  }
}

TEST(EventQueueTest, VisitInOrderIsSortedNonDestructiveAndStopsEarly) {
  for (const EventQueueKind kind : kAllKinds) {
    const auto queue = MakeEventQueue(kind);
    Rng rng(99);
    for (int64_t sequence = 0; sequence < 200; ++sequence) {
      queue->Push(MakeEvent(
          0.5 * static_cast<double>(rng.UniformInt(0, 19)), sequence));
    }
    // Full visit: strictly increasing (time, sequence).
    std::vector<std::pair<double, int64_t>> visited;
    queue->VisitInOrder(1000, [&](const SimEvent& event) {
      visited.push_back({event.time, event.sequence});
      return EventQueue::VisitAction::kContinue;
    });
    ASSERT_EQ(visited.size(), 200u) << EventQueueKindName(kind);
    for (size_t i = 1; i < visited.size(); ++i) {
      ASSERT_TRUE(visited[i - 1] < visited[i]) << EventQueueKindName(kind);
    }
    // Early stop after 10: exactly the first 10 of the full visit.
    std::vector<std::pair<double, int64_t>> prefix;
    queue->VisitInOrder(1000, [&](const SimEvent& event) {
      prefix.push_back({event.time, event.sequence});
      return prefix.size() < 10 ? EventQueue::VisitAction::kContinue
                                : EventQueue::VisitAction::kStop;
    });
    ASSERT_EQ(prefix.size(), 10u);
    for (size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i], visited[i]) << EventQueueKindName(kind);
    }
    // max_visit caps the visit.
    int count = 0;
    queue->VisitInOrder(7, [&](const SimEvent&) {
      ++count;
      return EventQueue::VisitAction::kContinue;
    });
    EXPECT_EQ(count, 7) << EventQueueKindName(kind);
    // Non-destructive: popping still yields the full sorted stream.
    EXPECT_EQ(queue->size(), 200);
    for (const auto& want : visited) {
      const SimEvent got = queue->PopNext();
      ASSERT_EQ(got.time, want.first) << EventQueueKindName(kind);
      ASSERT_EQ(got.sequence, want.second) << EventQueueKindName(kind);
    }
  }
}

TEST(EventQueueTest, ClearEmptiesEveryKind) {
  for (const EventQueueKind kind : kAllKinds) {
    const auto queue = MakeEventQueue(kind);
    for (int64_t sequence = 0; sequence < 32; ++sequence) {
      queue->Push(MakeEvent(static_cast<double>(sequence % 5), sequence));
    }
    queue->Clear();
    EXPECT_TRUE(queue->empty()) << EventQueueKindName(kind);
    // Still usable after Clear.
    queue->Push(MakeEvent(1.0, 100));
    EXPECT_EQ(queue->PopNext().sequence, 100);
  }
}

// SaveQueue on one queue kind, RestoreQueue into every kind: the restored
// simulator must replay the exact event order of the original, tie-breaks
// included, because times AND sequence numbers round-trip bit-exactly.
TEST(EventQueueTest, SaveRestoreRoundTripsAcrossQueueKinds) {
  for (const EventQueueKind save_kind : kAllKinds) {
    // Source run: tagged plain events with deliberate time ties.
    EventSimulator source;
    source.ReplaceQueue(MakeEventQueue(save_kind));
    std::vector<int64_t> source_order;
    for (int64_t tag = 0; tag < 24; ++tag) {
      EventPayload payload;
      payload.tag = tag;
      const double time = static_cast<double>((tag * 7) % 5);
      source.ScheduleAt(time, std::move(payload),
                        [&source_order, tag] { source_order.push_back(tag); });
    }
    const auto saved = source.SaveQueue();
    ASSERT_TRUE(saved.ok()) << EventQueueKindName(save_kind);
    ASSERT_EQ(saved->size(), 24u);
    const int64_t next_sequence = source.next_sequence();
    source.RunUntilIdle();
    ASSERT_EQ(source_order.size(), 24u);

    for (const EventQueueKind restore_kind : kAllKinds) {
      EventSimulator restored;
      restored.ReplaceQueue(MakeEventQueue(restore_kind));
      restored.RestoreClock(/*now=*/0.0, next_sequence, /*processed=*/0);
      std::vector<int64_t> restored_order;
      const Status status = restored.RestoreQueue(
          *saved, [&restored_order](const SavedEvent& event)
                      -> StatusOr<RebuiltEvent> {
            RebuiltEvent rebuilt;
            const int64_t tag = event.payload.tag;
            rebuilt.plain = [&restored_order, tag] {
              restored_order.push_back(tag);
            };
            return rebuilt;
          });
      ASSERT_TRUE(status.ok())
          << EventQueueKindName(save_kind) << " -> "
          << EventQueueKindName(restore_kind) << ": " << status.ToString();
      restored.RunUntilIdle();
      EXPECT_EQ(restored_order, source_order)
          << EventQueueKindName(save_kind) << " -> "
          << EventQueueKindName(restore_kind);
    }
  }
}

// The zero-alloc discipline, simulator-core edition: a steady-state
// self-rescheduling workload (every pop schedules one replacement whose
// captures fit SmallFn's inline storage) must reach a state where a full
// measurement window performs no heap allocation, under ANY queue kind.
// Storage is grow-only everywhere, but the calendar queue's per-bucket
// vectors can still hit record occupancies deep into a run, so warm-up
// continues until a whole window is clean rather than for a fixed count —
// the workload is deterministic, so the test is stable.
TEST(EventQueueTest, SteadyStateSchedulingIsAllocationFree) {
  struct Tick {
    EventSimulator* sim;
    const std::vector<double>* periods;
    void Fire(int worker) const {
      const Tick self = *this;
      sim->ScheduleAfter((*periods)[static_cast<size_t>(worker)],
                         [self, worker] { self.Fire(worker); });
    }
  };
  for (const EventQueueKind kind : kAllKinds) {
    EventSimulator sim;
    sim.ReplaceQueue(MakeEventQueue(kind));
    constexpr int kWorkers = 64;
    std::vector<double> periods(kWorkers);
    Rng rng(4242);
    for (double& period : periods) period = rng.Uniform(0.5, 1.5);
    const Tick tick{&sim, &periods};
    for (int w = kWorkers - 1; w >= 0; --w) {
      const double phase = 1.0 + 0.01 * static_cast<double>(w);
      sim.ScheduleAt(phase, [tick, w] { tick.Fire(w); });
    }
    // Warm-up: grows the queue storage (vector capacity, calendar
    // buckets and cursors) to its steady-state footprint.
    for (int i = 0; i < 20000; ++i) ASSERT_TRUE(sim.Step());
    // Then require an entirely allocation-free window within a bounded
    // number of attempts; the vector is clean on the first window.
    int64_t window_allocs = -1;
    for (int window = 0; window < 25; ++window) {
      const int64_t before = AllocationCount();
      for (int i = 0; i < 4000; ++i) ASSERT_TRUE(sim.Step());
      window_allocs = AllocationCount() - before;
      if (window_allocs == 0) break;
    }
    EXPECT_EQ(window_allocs, 0) << EventQueueKindName(kind);
  }
}

// ReplaceQueue is the simulator-level seam: a full run through each queue
// kind produces the same callback order and clock.
TEST(EventQueueTest, SimulatorRunsIdenticallyUnderEveryKind) {
  std::vector<std::vector<int>> orders;
  std::vector<double> final_times;
  for (const EventQueueKind kind : kAllKinds) {
    EventSimulator sim;
    sim.ReplaceQueue(MakeEventQueue(kind));
    EXPECT_EQ(sim.queue_kind(), kind);
    EXPECT_EQ(sim.queue_name(), EventQueueKindName(kind));
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(static_cast<double>((i * 13) % 7),
                     [&order, i] { order.push_back(i); });
    }
    sim.RunUntilIdle();
    orders.push_back(std::move(order));
    final_times.push_back(sim.Now());
  }
  for (size_t i = 1; i < orders.size(); ++i) {
    EXPECT_EQ(orders[i], orders[0]) << EventQueueKindName(kAllKinds[i]);
    EXPECT_EQ(final_times[i], final_times[0])
        << EventQueueKindName(kAllKinds[i]);
  }
}

}  // namespace
}  // namespace netmax::net
