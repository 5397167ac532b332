// In-memory span log for the traced run.  One span per call the benchmark
// makes into a layer: name, start, end, parent, and the id of the
// experiment it belongs to.  Written out as JSON Lines when the run exits.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::uint32_t id{0};
    std::uint32_t parent{0};  ///< 0 = root
    std::uint32_t experiment{0};
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{-1};  ///< -1 while open
  };

  /// Opens a span under the innermost open one.
  std::uint32_t begin(std::string name, std::uint32_t experiment);
  /// Closes `id` and any span still open inside it.
  void end(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::string to_jsonl() const;

  /// Self time per span name (its first word), summed over all spans:
  /// each span's duration minus the part its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Closes its span when it leaves scope unless closed explicitly first.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint32_t experiment)
      : log_(log), id_(log.begin(std::move(name), experiment)) {}
  ~ScopedSpan() {
    if (!closed_) log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    closed_ = true;
    log_.end(id_);
  }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  bool closed_{false};
};

/// Wall-clock seconds since `t0`.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
