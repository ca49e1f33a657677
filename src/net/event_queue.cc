#include "net/event_queue.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"

namespace netmax::net {
namespace {

// upper_bound comparator for descending (time, sequence) storage: true when
// `a` pops after `b`.
bool PopsAfter(const SimEvent& a, const SimEvent& b) {
  return b.DispatchesBefore(a);
}

// --- sorted vector ----------------------------------------------------------
// Descending (time, sequence), next event at the back: O(1) pop, O(n)
// shifting insert. The ordering reference the calendar queue is tested
// against: an upper_bound insert leaves nothing to get wrong.
class SortedVectorEventQueue final : public EventQueue {
 public:
  std::string_view name() const override { return "vector"; }
  EventQueueKind kind() const override {
    return EventQueueKind::kSortedVector;
  }

  void Push(SimEvent event) override {
    const auto position =
        std::upper_bound(queue_.begin(), queue_.end(), event, PopsAfter);
    queue_.insert(position, std::move(event));
  }

  SimEvent PopNext() override {
    NETMAX_CHECK(!queue_.empty());
    SimEvent event = std::move(queue_.back());
    queue_.pop_back();
    return event;
  }

  double NextTime() const override {
    NETMAX_CHECK(!queue_.empty());
    return queue_.back().time;
  }

  int64_t size() const override { return static_cast<int64_t>(queue_.size()); }

  void Clear() override { queue_.clear(); }

  void VisitInOrder(int64_t max_visit, const Visitor& visit) const override {
    int64_t visited = 0;
    for (auto it = queue_.rbegin(); it != queue_.rend() && visited < max_visit;
         ++it, ++visited) {
      if (visit(*it) == VisitAction::kStop) return;
    }
  }

 private:
  std::vector<SimEvent> queue_;
};

// --- calendar queue ---------------------------------------------------------
// Brown's calendar queue: a "year" of N buckets of width `width_`; an event
// at time t lives in bucket VirtualBucket(t) mod N, each bucket sorted
// descending so its earliest event sits at the back. Pops scan virtual
// buckets upward from a cached position, taking bucket heads that belong to
// the scanned window; a fruitless full lap (everything far ahead of a stale
// width) recalibrates the width from the live contents and rescans.
//
// Correctness notes:
//  * Window membership is decided by VirtualBucket(time) == vb, never by a
//    separately recomputed time bound, so floating-point rounding at bucket
//    boundaries cannot disagree with where Push placed the event.
//  * VirtualBucket is monotone in time and equal times map to equal virtual
//    buckets, so cross-bucket order follows the window scan and ties stay
//    inside one bucket where (time, sequence) sorting breaks them — pop
//    order is bit-identical to the sorted vector's.
//  * Bucket count only grows (powers of two) and bucket vectors keep their
//    capacity, so steady-state push/pop allocates nothing once warm.
class CalendarEventQueue final : public EventQueue {
 public:
  CalendarEventQueue() { buckets_.resize(kInitialBuckets); }

  std::string_view name() const override { return "calendar"; }
  EventQueueKind kind() const override { return EventQueueKind::kCalendar; }

  void Push(SimEvent event) override {
    const int64_t vb = VirtualBucket(event.time);
    if (size_ == 0 || vb < current_virtual_bucket_) {
      current_virtual_bucket_ = vb;
    }
    std::vector<SimEvent>& bucket = buckets_[BucketIndex(vb)];
    const auto position =
        std::upper_bound(bucket.begin(), bucket.end(), event, PopsAfter);
    bucket.insert(position, std::move(event));
    ++size_;
    if (size_ > 2 * static_cast<int64_t>(buckets_.size())) {
      Recalibrate(2 * static_cast<int64_t>(buckets_.size()));
    }
  }

  SimEvent PopNext() override {
    NETMAX_CHECK_GT(size_, 0);
    for (int attempt = 0; attempt < 2; ++attempt) {
      int64_t vb = current_virtual_bucket_;
      for (size_t lap = 0; lap <= buckets_.size(); ++lap, ++vb) {
        std::vector<SimEvent>& bucket = buckets_[BucketIndex(vb)];
        if (!bucket.empty() && VirtualBucket(bucket.back().time) <= vb) {
          current_virtual_bucket_ = vb;
          SimEvent event = std::move(bucket.back());
          bucket.pop_back();
          --size_;
          return event;
        }
      }
      // A fruitless year: every pending event sits far beyond the current
      // window, i.e. the width is stale for the live event spacing.
      // Recalibrate and rescan — the minimum lands inside the first window
      // of the rescan by construction.
      Recalibrate(static_cast<int64_t>(buckets_.size()));
    }
    NETMAX_CHECK(false) << "calendar queue lost track of its events";
    return SimEvent{};
  }

  double NextTime() const override { return PeekNext()->time; }

  int64_t size() const override { return size_; }

  void Clear() override {
    for (std::vector<SimEvent>& bucket : buckets_) bucket.clear();
    size_ = 0;
  }

  void VisitInOrder(int64_t max_visit, const Visitor& visit) const override {
    if (size_ == 0 || max_visit <= 0) return;
    // Epoch-stamped per-bucket cursors make the non-destructive scan cheap:
    // no O(buckets) reset per call, and no allocation once the cursor
    // arrays match the bucket count.
    ++scan_epoch_;
    if (cursor_.size() != buckets_.size()) {
      cursor_.assign(buckets_.size(), 0);
      cursor_epoch_.assign(buckets_.size(), 0);
    }
    int64_t visited = 0;
    int64_t remaining = size_;
    int64_t vb = current_virtual_bucket_;
    size_t fruitless = 0;
    while (visited < max_visit && remaining > 0) {
      const size_t index = BucketIndex(vb);
      int64_t& cursor = Cursor(index);
      if (cursor > 0 &&
          VirtualBucket(buckets_[index][cursor - 1].time) <= vb) {
        const SimEvent& event = buckets_[index][cursor - 1];
        --cursor;
        --remaining;
        ++visited;
        fruitless = 0;
        if (visit(event) == VisitAction::kStop) return;
        continue;
      }
      ++vb;
      if (++fruitless > buckets_.size()) {
        // Stale width, same situation as PopNext's fruitless year — but the
        // scan is const, so jump to the earliest unvisited head directly
        // instead of recalibrating.
        const SimEvent* best = nullptr;
        for (size_t i = 0; i < buckets_.size(); ++i) {
          const int64_t head = Cursor(i);
          if (head == 0) continue;
          const SimEvent& candidate = buckets_[i][head - 1];
          if (best == nullptr || candidate.DispatchesBefore(*best)) {
            best = &candidate;
          }
        }
        if (best == nullptr) return;
        vb = VirtualBucket(best->time);
        fruitless = 0;
      }
    }
  }

 private:
  static constexpr size_t kInitialBuckets = 16;  // always a power of two

  size_t BucketIndex(int64_t vb) const {
    // Power-of-two bucket counts make `& (n-1)` a correct modulo for
    // negative virtual buckets too.
    return static_cast<size_t>(vb &
                               (static_cast<int64_t>(buckets_.size()) - 1));
  }

  int64_t VirtualBucket(double time) const {
    // Clamped so the cast is always defined; everything beyond the clamp
    // collapses into one far-future (or far-past) virtual bucket, where the
    // in-bucket (time, sequence) sort still orders it exactly.
    constexpr double kClamp = 4.0e15;
    const double vb = std::floor(time / width_);
    if (vb >= kClamp) return static_cast<int64_t>(kClamp);
    if (vb <= -kClamp) return -static_cast<int64_t>(kClamp);
    return static_cast<int64_t>(vb);
  }

  int64_t& Cursor(size_t index) const {
    if (cursor_epoch_[index] != scan_epoch_) {
      cursor_epoch_[index] = scan_epoch_;
      cursor_[index] = static_cast<int64_t>(buckets_[index].size());
    }
    return cursor_[index];
  }

  // Earliest pending event; advances the cached scan position (a pure
  // cache — mutating it never changes pop order).
  const SimEvent* PeekNext() const {
    NETMAX_CHECK_GT(size_, 0);
    int64_t vb = current_virtual_bucket_;
    for (size_t lap = 0; lap <= buckets_.size(); ++lap, ++vb) {
      const std::vector<SimEvent>& bucket = buckets_[BucketIndex(vb)];
      if (!bucket.empty() && VirtualBucket(bucket.back().time) <= vb) {
        current_virtual_bucket_ = vb;
        return &bucket.back();
      }
    }
    const SimEvent* best = nullptr;
    for (const std::vector<SimEvent>& bucket : buckets_) {
      if (!bucket.empty() &&
          (best == nullptr || bucket.back().DispatchesBefore(*best))) {
        best = &bucket.back();
      }
    }
    current_virtual_bucket_ = VirtualBucket(best->time);
    return best;
  }

  // Re-derives the bucket width from the live contents (targeting ~two
  // events per bucket-window) and redistributes into `bucket_count` buckets.
  // Deterministic: inputs are the pending events only.
  void Recalibrate(int64_t bucket_count) {
    scratch_.clear();
    for (std::vector<SimEvent>& bucket : buckets_) {
      for (SimEvent& event : bucket) scratch_.push_back(std::move(event));
      bucket.clear();
    }
    if (static_cast<int64_t>(buckets_.size()) < bucket_count) {
      buckets_.resize(static_cast<size_t>(bucket_count));
    }
    if (scratch_.empty()) return;
    double t_min = scratch_.front().time;
    double t_max = t_min;
    for (const SimEvent& event : scratch_) {
      t_min = std::min(t_min, event.time);
      t_max = std::max(t_max, event.time);
    }
    const double span = t_max - t_min;
    double width =
        span > 0.0 ? 2.0 * span / static_cast<double>(scratch_.size())
                   : width_;
    // Floors keep VirtualBucket well inside the clamp for the live times
    // and away from degenerate zero width.
    width = std::max({width, std::abs(t_max) / 4.0e15,
                      std::abs(t_min) / 4.0e15, 1e-9});
    width_ = width;
    current_virtual_bucket_ = VirtualBucket(t_min);
    for (SimEvent& event : scratch_) {
      std::vector<SimEvent>& bucket =
          buckets_[BucketIndex(VirtualBucket(event.time))];
      const auto position =
          std::upper_bound(bucket.begin(), bucket.end(), event, PopsAfter);
      bucket.insert(position, std::move(event));
    }
    scratch_.clear();
  }

  std::vector<std::vector<SimEvent>> buckets_;
  std::vector<SimEvent> scratch_;  // Recalibrate staging, grow-only
  double width_ = 1.0;
  int64_t size_ = 0;
  // Scan position: no pending event has a virtual bucket below this.
  mutable int64_t current_virtual_bucket_ = 0;
  // VisitInOrder cursor state (see above).
  mutable std::vector<int64_t> cursor_;
  mutable std::vector<uint64_t> cursor_epoch_;
  mutable uint64_t scan_epoch_ = 0;
};

}  // namespace

StatusOr<EventQueueKind> ParseEventQueueKind(std::string_view text) {
  if (text == "vector") return EventQueueKind::kSortedVector;
  if (text == "calendar") return EventQueueKind::kCalendar;
  return InvalidArgumentError(
      "unknown event queue '" + std::string(text) +
      "' (expected vector or calendar)");
}

std::string_view EventQueueKindName(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kSortedVector:
      return "vector";
    case EventQueueKind::kCalendar:
      return "calendar";
  }
  NETMAX_CHECK(false) << "unreachable";
  return "";
}

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kSortedVector:
      return std::make_unique<SortedVectorEventQueue>();
    case EventQueueKind::kCalendar:
      return std::make_unique<CalendarEventQueue>();
  }
  NETMAX_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace netmax::net
