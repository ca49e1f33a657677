#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.h"

namespace netmax::perfbench {
namespace {

// Escapes `text` for use inside a JSON string literal.
std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool IsKnownSpanName(std::string_view name) {
  return std::find(std::begin(kSpanNames), std::end(kSpanNames), name) !=
         std::end(kSpanNames);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(std::string_view name, std::string detail) {
  NETMAX_CHECK(IsKnownSpanName(name)) << name;
  Span span;
  span.name = std::string(name);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.detail = std::move(detail);
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  NETMAX_CHECK(!open_.empty() && open_.back() == id) << "unbalanced span";
  open_.pop_back();
  spans_[static_cast<size_t>(id - 1)].end_us = NowUs();
}

void Tracer::WriteChromeJson(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& context) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (size_t i = 0; i < context.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << JsonEscape(context[i].first)
       << "\":\"" << JsonEscape(context[i].second) << '"';
  }
  os << "},\"traceEvents\":[";
  char times[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  span.start_us - origin, span.end_us - span.start_us);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscape(span.name)
       << "\",\"cat\":\"" << JsonEscape(span.name.substr(0, span.name.find('.')))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
       << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
       << ",\"detail\":\"" << JsonEscape(span.detail) << "\"}}";
  }
  os << "\n]}\n";
}

}  // namespace netmax::perfbench
