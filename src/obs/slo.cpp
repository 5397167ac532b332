#include "obs/slo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/names.hpp"
#include "obs/registry.hpp"

namespace rill::obs {

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

SloMonitor::SloMonitor(SloConfig config) : config_(config) {
  if (config_.window_sec == 0) config_.window_sec = 1;
}

void SloMonitor::record(SimTime arrival, std::uint64_t latency_us) {
  finalized_ = false;
  const std::uint64_t width_us = config_.window_sec * 1'000'000ull;
  if (!opened_) {
    // Anchor the first window at the first arrival: windows before any
    // traffic simply do not exist.
    open_start_us_ = arrival / width_us * width_us;
    opened_ = true;
  }
  assert(arrival >= open_start_us_ && "SLO arrivals must be non-decreasing");
  // A sample past the open window's end proves those windows elapsed.
  while (arrival >= open_start_us_ + width_us) close_window();
  current_.push_back(latency_us);
}

void SloMonitor::advance_to(SimTime now) {
  finalized_ = false;
  if (!opened_) return;  // no traffic yet: leading empties are skipped
  const std::uint64_t width_us = config_.window_sec * 1'000'000ull;
  while (open_start_us_ + width_us <= now) close_window();
}

SloWindow SloMonitor::open_window() {
  std::sort(current_.begin(), current_.end());
  SloWindow win;
  win.start_sec = open_start_us_ / 1'000'000ull;
  win.count = current_.size();
  win.p50_us = nearest_rank(current_, 0.50);
  win.p95_us = nearest_rank(current_, 0.95);
  win.p99_us = nearest_rank(current_, 0.99);
  if (config_.target_p99_us > 0) {
    // An empty closed window after traffic started means the sinks went
    // silent for its whole width — a breach (it may turn out to be the
    // trailing shutdown; finalize() trims those).
    win.violated =
        current_.empty() ? true : win.p99_us > config_.target_p99_us;
  }
  return win;
}

void SloMonitor::close_window() {
  closed_.push_back(open_window());
  current_.clear();
  open_start_us_ += config_.window_sec * 1'000'000ull;
}

void SloMonitor::finalize() {
  finished_ = closed_;
  if (!current_.empty()) finished_.push_back(open_window());
  while (!finished_.empty() && finished_.back().count == 0) finished_.pop_back();
  finalized_ = true;
}

std::vector<SloViolation> SloMonitor::violations() const {
  std::vector<SloViolation> runs;
  const std::vector<SloWindow>& ws = windows();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (!ws[i].violated) continue;
    std::size_t j = i;
    while (j + 1 < ws.size() && ws[j + 1].violated) ++j;
    runs.push_back(
        SloViolation{ws[i].start_sec, ws[j].start_sec + config_.window_sec});
    i = j;
  }
  return runs;
}

std::uint64_t SloMonitor::violated_windows() const noexcept {
  std::uint64_t n = 0;
  for (const SloWindow& w : windows())
    if (w.violated) ++n;
  return n;
}

std::uint64_t SloMonitor::burn_per_mille() const noexcept {
  if (windows().empty()) return 0;
  return violated_windows() * 1000 / windows().size();
}

int SloMonitor::violated_streak() const noexcept {
  int n = 0;
  for (auto it = windows().rbegin(); it != windows().rend() && it->violated;
       ++it)
    ++n;
  return n;
}

int SloMonitor::ok_streak() const noexcept {
  int n = 0;
  for (auto it = windows().rbegin(); it != windows().rend() && !it->violated;
       ++it)
    ++n;
  return n;
}

void SloMonitor::export_to(MetricsRegistry& reg) const {
  reg.counter(names::slo_metric("windows"))->add(windows().size());
  reg.counter(names::slo_metric("violated_windows"))->add(violated_windows());
  reg.counter(names::slo_metric("violations"))->add(violations().size());
  reg.counter(names::slo_metric("burn_per_mille"))->add(burn_per_mille());
  reg.counter(names::slo_metric("target_p99_us"))->add(config_.target_p99_us);
  Histogram* p50 = reg.histogram(names::slo_metric("window_p50_us"));
  Histogram* p95 = reg.histogram(names::slo_metric("window_p95_us"));
  Histogram* p99 = reg.histogram(names::slo_metric("window_p99_us"));
  for (const SloWindow& w : windows()) {
    if (w.count == 0) continue;
    p50->record(w.p50_us);
    p95->record(w.p95_us);
    p99->record(w.p99_us);
  }
}

}  // namespace rill::obs
