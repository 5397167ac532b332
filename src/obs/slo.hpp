// Windowed SLO monitor over the sink-arrival latency log.
//
// Buckets sink arrivals into fixed sim-time windows (default 10 s) and
// computes nearest-rank p50/p95/p99 per window, flags windows whose p99
// exceeds the target, merges consecutive violated windows into violation
// runs, and reports an integer burn rate (violated windows per mille).
//
// One monitor serves every consumer: the autoscale controller's live
// signal (fed as the run goes), the slo.* instruments in --task-metrics
// JSON, rill_trace's SLO report and bench_autoscale's static arms (fed
// after the run, then finalized).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace rill::obs {

class MetricsRegistry;

struct SloConfig {
  /// p99 target per window, µs.  0 disables violation flagging (the
  /// window series is still computed).
  std::uint64_t target_p99_us{0};
  /// Window width, seconds of sim time.
  std::uint64_t window_sec{10};
};

struct SloWindow {
  std::uint64_t start_sec{0};  ///< window start, seconds from sim start
  std::uint64_t count{0};
  std::uint64_t p50_us{0};
  std::uint64_t p95_us{0};
  std::uint64_t p99_us{0};
  bool violated{false};
};

/// A maximal run of consecutive violated windows, [start_sec, end_sec).
struct SloViolation {
  std::uint64_t start_sec{0};
  std::uint64_t end_sec{0};
};

/// Nearest-rank percentile: the ⌈q·n⌉-th smallest of `sorted` (clamped to
/// [1, n]); 0 for an empty input.  `sorted` must be ascending.
[[nodiscard]] std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                                         double q);

/// The monitor only ever evaluates *closed* windows:
///
///  * a window closes when sim time passes its end (advance_to, or an
///    arrival past it);
///  * the current, not-yet-elapsed window is never counted — violated or
///    otherwise — because its emptiness (or a low sample count) proves
///    nothing yet;
///  * leading empty windows (before the first sample ever) do not exist:
///    the series starts at the first arrival's window;
///  * empty closed windows after traffic has started count as violated
///    when a target is set: a migration that silences the sinks for 30 s
///    is an SLO breach even though no sample exceeded the target;
///  * finalize() ends the run: the open window counts if it holds samples,
///    and trailing empty windows are trimmed (the silence past the last
///    arrival is the shutdown, not a breach).
///
/// Samples must arrive in non-decreasing arrival order (the sink feed is
/// causal; offline feeds sort first, see analysis::slo_of).
class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config);

  /// Feed one sink arrival.  Arrivals must be non-decreasing.
  void record(SimTime arrival, std::uint64_t latency_us);

  /// Close every window whose end lies at or before `now`.
  void advance_to(SimTime now);

  /// Build the finished series (see the class comment).  A later record()
  /// or advance_to() resumes the live series; finalize() again to rebuild.
  void finalize();

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  /// Closed windows so far, oldest first — the finished series once
  /// finalized.
  [[nodiscard]] const std::vector<SloWindow>& windows() const noexcept {
    return finalized_ ? finished_ : closed_;
  }
  /// Maximal runs of consecutive violated windows().
  [[nodiscard]] std::vector<SloViolation> violations() const;
  [[nodiscard]] std::uint64_t violated_windows() const noexcept;
  /// violated windows / windows, per mille (integer; R3-clean).
  [[nodiscard]] std::uint64_t burn_per_mille() const noexcept;
  /// Consecutive violated windows at the tail of windows().
  [[nodiscard]] int violated_streak() const noexcept;
  /// Consecutive non-violated windows at the tail of windows().
  [[nodiscard]] int ok_streak() const noexcept;

  /// Export slo.* instruments (counters + per-window percentile
  /// histograms) into the registry.
  void export_to(MetricsRegistry& reg) const;

 private:
  /// Summarize the open window (sorts current_ in place).
  [[nodiscard]] SloWindow open_window();
  void close_window();

  SloConfig config_;
  std::vector<SloWindow> closed_;       ///< closed windows, live series
  std::vector<SloWindow> finished_;     ///< finalize()'s series
  std::vector<std::uint64_t> current_;  ///< latencies in the open window
  std::uint64_t open_start_us_{0};      ///< open window start, µs
  bool opened_{false};     ///< open_start_us_ is anchored (a sample arrived)
  bool finalized_{false};  ///< windows() is finished_
};

}  // namespace rill::obs
