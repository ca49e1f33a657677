#include "net/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace netmax::net {
namespace {

// Consumes a leading double from `text`; false on no parse.
bool EatDouble(std::string_view* text, double* value) {
  const std::string buffer(*text);
  char* end = nullptr;
  const double parsed = std::strtod(buffer.c_str(), &end);
  if (end == buffer.c_str()) return false;
  *value = parsed;
  text->remove_prefix(static_cast<size_t>(end - buffer.c_str()));
  return true;
}

// Consumes a leading literal; false (and no consumption) if absent.
bool EatLiteral(std::string_view* text, std::string_view literal) {
  if (text->substr(0, literal.size()) != literal) return false;
  text->remove_prefix(literal.size());
  return true;
}

// Consumes a trailing ":wN" worker suffix.
bool EatWorkerSuffix(std::string_view* text, int* worker) {
  if (!EatLiteral(text, ":w")) return false;
  double id = 0.0;
  if (!EatDouble(text, &id)) return false;
  if (id != std::floor(id) || id < 0.0 || id > 1e9) return false;
  *worker = static_cast<int>(id);
  return true;
}

Status EntryError(std::string_view entry, std::string_view why) {
  return InvalidArgumentError("bad fault entry \"" + std::string(entry) +
                              "\": " + std::string(why));
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlowdown:
      return "slow";
  }
  return "unknown";
}

StatusOr<FaultSchedule> FaultSchedule::Parse(std::string_view spec) {
  FaultSchedule schedule;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;  // tolerate empty segments / trailing ';'

    FaultEvent event;
    std::string_view rest = entry;
    if (EatLiteral(&rest, "leave@")) {
      event.kind = FaultKind::kLeave;
    } else if (EatLiteral(&rest, "join@")) {
      event.kind = FaultKind::kJoin;
    } else if (EatLiteral(&rest, "crash@")) {
      event.kind = FaultKind::kCrash;
    } else if (EatLiteral(&rest, "slow@")) {
      event.kind = FaultKind::kSlowdown;
    } else {
      return EntryError(entry,
                        "expected leave@ / join@ / crash@ / slow@ prefix");
    }
    if (!EatDouble(&rest, &event.time)) {
      return EntryError(entry, "cannot parse the event time");
    }
    if (event.kind == FaultKind::kSlowdown) {
      if (!EatLiteral(&rest, "+")) {
        return EntryError(entry, "slow@ needs +DURATION after the time");
      }
      if (!EatDouble(&rest, &event.duration)) {
        return EntryError(entry, "cannot parse the slowdown duration");
      }
      if (!EatLiteral(&rest, "x")) {
        return EntryError(entry, "slow@ needs xFACTOR after the duration");
      }
      if (!EatDouble(&rest, &event.factor)) {
        return EntryError(entry, "cannot parse the slowdown factor");
      }
    }
    if (event.kind != FaultKind::kCrash) {
      if (!EatWorkerSuffix(&rest, &event.worker)) {
        return EntryError(entry, "expected a :wN worker suffix");
      }
    }
    if (!rest.empty()) {
      return EntryError(entry, "trailing characters \"" + std::string(rest) +
                                   "\"");
    }
    schedule.events_.push_back(event);
  }
  return schedule;
}

FaultSchedule FaultSchedule::FromSeed(uint64_t seed, int num_workers,
                                      double horizon, int count) {
  NETMAX_CHECK_GE(num_workers, 1);
  NETMAX_CHECK_GT(horizon, 0.0);
  NETMAX_CHECK_GE(count, 0);
  Rng rng(seed ^ 0xFA517FA517FA517Full);
  std::vector<FaultEvent> events;
  for (int i = 0; i < count; ++i) {
    const double time = rng.Uniform(0.1 * horizon, 0.6 * horizon);
    const int worker = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(num_workers) - 1));
    if (rng.Uniform() < 0.5) {
      FaultEvent slow;
      slow.kind = FaultKind::kSlowdown;
      slow.time = time;
      slow.worker = worker;
      slow.factor = rng.Uniform(2.0, 8.0);
      slow.duration = rng.Uniform(0.05, 0.15) * horizon;
      events.push_back(slow);
    } else {
      FaultEvent leave;
      leave.kind = FaultKind::kLeave;
      leave.time = time;
      leave.worker = worker;
      events.push_back(leave);
      FaultEvent join = leave;
      join.kind = FaultKind::kJoin;
      join.time = time + rng.Uniform(0.05, 0.15) * horizon;
      events.push_back(join);
    }
  }
  // A worker can be drawn twice; sorting restores the monotone-time contract
  // (stable so a leave always precedes its paired rejoin at equal times).
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  FaultSchedule schedule;
  schedule.events_ = std::move(events);
  return schedule;
}

Status ValidateFaultEvent(const FaultEvent& event, int num_workers,
                          std::string_view where) {
  const auto invalid = [where](const std::string& what) {
    return InvalidArgumentError(std::string(where) + what);
  };
  const int kind = static_cast<int>(event.kind);
  if (kind < 0 || kind > static_cast<int>(FaultKind::kSlowdown)) {
    return invalid(" has an unknown kind " + std::to_string(kind));
  }
  if (!std::isfinite(event.time) || event.time < 0.0) {
    return invalid(" has a non-finite or negative time");
  }
  if (event.kind != FaultKind::kCrash &&
      (event.worker < 0 || event.worker >= num_workers)) {
    return invalid(" references worker " + std::to_string(event.worker) +
                   ", but the run has " + std::to_string(num_workers) +
                   " workers");
  }
  if (event.kind == FaultKind::kSlowdown) {
    if (!std::isfinite(event.factor) || event.factor <= 0.0) {
      return invalid(" has a non-positive slowdown factor");
    }
    if (!std::isfinite(event.duration) || event.duration <= 0.0) {
      return invalid(" has a non-positive slowdown duration");
    }
  }
  return Status::Ok();
}

Status FaultSchedule::Validate(int num_workers) const {
  double last_time = 0.0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& event = events_[i];
    const std::string where = "fault event " + std::to_string(i) + " (" +
                              std::string(FaultKindName(event.kind)) + ")";
    NETMAX_RETURN_IF_ERROR(ValidateFaultEvent(event, num_workers, where));
    if (event.time < last_time) {
      return InvalidArgumentError(
          where + " is out of order: fault times must be non-decreasing");
    }
    last_time = event.time;
  }
  return Status::Ok();
}

std::string FaultSchedule::ToSpec() const {
  std::ostringstream out;
  for (size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& event = events_[i];
    if (i > 0) out << ';';
    out << FaultKindName(event.kind) << '@' << event.time;
    if (event.kind == FaultKind::kSlowdown) {
      out << '+' << event.duration << 'x' << event.factor;
    }
    if (event.kind != FaultKind::kCrash) out << ":w" << event.worker;
  }
  return out.str();
}

}  // namespace netmax::net
