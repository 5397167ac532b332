#include "spans.hpp"

#include "metrics/json.hpp"

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t SpanLog::begin(std::string name, std::uint32_t experiment) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.experiment = experiment;
  s.name = std::move(name);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::end(std::uint32_t id) {
  Span& s = spans_[id - 1];
  if (s.end_ns < 0) s.end_ns = now_ns();
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::string SpanLog::to_jsonl() const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"experiment\":" + std::to_string(s.experiment) + ",\"name\":\"" +
           rill::metrics::json_escape(s.name) +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + "}\n";
  }
  return out;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (const Span& s : spans_) self[s.id - 1] += s.end_ns - s.start_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name.substr(0, s.name.find(' '))] +=
        static_cast<double>(self[s.id - 1]) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
