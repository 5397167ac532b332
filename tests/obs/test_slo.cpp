#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "metrics/series.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"

namespace rill::obs {
namespace {

constexpr std::uint64_t kSec = 1'000'000;

TEST(SloMonitor, NoSamplesYieldsNoWindows) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  slo.finalize();
  EXPECT_TRUE(slo.windows().empty());
  EXPECT_TRUE(slo.violations().empty());
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.burn_per_mille(), 0u);
}

TEST(SloMonitor, BucketsByArrivalWindowAndComputesNearestRank) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/10});
  // Window [0,10): latencies 10, 20, 30.  Window [10,20): latency 500.
  slo.record(1 * kSec, 30);
  slo.record(2 * kSec, 10);
  slo.record(9 * kSec, 20);
  slo.record(15 * kSec, 500);
  slo.finalize();

  ASSERT_EQ(slo.windows().size(), 2u);
  const SloWindow& w0 = slo.windows()[0];
  EXPECT_EQ(w0.start_sec, 0u);
  EXPECT_EQ(w0.count, 3u);
  EXPECT_EQ(w0.p50_us, 20u);
  EXPECT_EQ(w0.p99_us, 30u);
  EXPECT_FALSE(w0.violated);  // target 0 = flagging disabled
  const SloWindow& w1 = slo.windows()[1];
  EXPECT_EQ(w1.start_sec, 10u);
  EXPECT_EQ(w1.count, 1u);
  EXPECT_EQ(w1.p99_us, 500u);
  EXPECT_FALSE(w1.violated);
  EXPECT_TRUE(slo.violations().empty());
}

TEST(SloMonitor, WindowSeriesStartsAtFirstArrivalWindow) {
  SloMonitor slo(SloConfig{0, 10});
  slo.record(95 * kSec, 1);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].start_sec, 90u);
}

TEST(SloMonitor, EmptyInteriorWindowIsViolatedWhenTargetSet) {
  // Arrivals at [0,10) and [30,40); windows [10,20) and [20,30) are silent
  // — a migration pause — and must be flagged even though no sample
  // exceeded the target.
  SloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(35 * kSec, 100);
  slo.finalize();

  ASSERT_EQ(slo.windows().size(), 4u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_TRUE(slo.windows()[2].violated);
  EXPECT_FALSE(slo.windows()[3].violated);
  EXPECT_EQ(slo.violated_windows(), 2u);

  // The two consecutive violated windows merge into one run [10, 30).
  ASSERT_EQ(slo.violations().size(), 1u);
  EXPECT_EQ(slo.violations()[0].start_sec, 10u);
  EXPECT_EQ(slo.violations()[0].end_sec, 30u);

  // 2 of 4 windows violated → 500 per mille.
  EXPECT_EQ(slo.burn_per_mille(), 500u);
}

TEST(SloMonitor, EmptyInteriorWindowIsFineWithoutTarget) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(25 * kSec, 100);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 3u);
  EXPECT_EQ(slo.violated_windows(), 0u);
}

TEST(SloMonitor, SeparateViolationRunsStaySeparate) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);    // violated
  slo.record(15 * kSec, 10);    // fine
  slo.record(25 * kSec, 200);   // violated
  slo.finalize();
  ASSERT_EQ(slo.violations().size(), 2u);
  EXPECT_EQ(slo.violations()[0].start_sec, 0u);
  EXPECT_EQ(slo.violations()[0].end_sec, 10u);
  EXPECT_EQ(slo.violations()[1].start_sec, 20u);
  EXPECT_EQ(slo.violations()[1].end_sec, 30u);
}

TEST(SloMonitor, RecordAfterFinalizeRebuildsOnNextFinalize) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 10);
  slo.finalize();
  EXPECT_EQ(slo.violated_windows(), 0u);
  slo.record(6 * kSec, 999);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].count, 2u);
  EXPECT_TRUE(slo.windows()[0].violated);
}

TEST(SloMonitor, ZeroWindowWidthClampsToOneSecond) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/0});
  EXPECT_EQ(slo.config().window_sec, 1u);
  slo.record(0, 5);
  slo.record(1 * kSec + 1, 7);
  slo.finalize();
  EXPECT_EQ(slo.windows().size(), 2u);
}

TEST(SloMonitor, ExportToWritesSloInstruments) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);   // violated
  slo.record(15 * kSec, 10);   // fine
  slo.finalize();

  MetricsRegistry reg;
  slo.export_to(reg);
  EXPECT_EQ(reg.counter(names::slo_metric("windows"))->value(), 2u);
  EXPECT_EQ(reg.counter(names::slo_metric("violated_windows"))->value(), 1u);
  EXPECT_EQ(reg.counter(names::slo_metric("violations"))->value(), 1u);
  EXPECT_EQ(reg.counter(names::slo_metric("burn_per_mille"))->value(), 500u);
  EXPECT_EQ(reg.counter(names::slo_metric("target_p99_us"))->value(), 50u);
  const Histogram& p99 = *reg.histogram(names::slo_metric("window_p99_us"));
  EXPECT_EQ(p99.count(), 2u);  // one sample per non-empty window
  EXPECT_EQ(p99.max(), 100u);
}

TEST(SloMonitor, FinalizedSeriesIsTheSameWithOrWithoutAdvance) {
  // Arrivals spread over [12, 87] s with an interior gap at [40,60).  The
  // offline callers finalize straight after feeding; the autoscaler first
  // advances past the run end.  Both must yield this exact series.
  const SloConfig cfg{/*target_p99_us=*/200, /*window_sec=*/10};
  SloMonitor fed(cfg);
  SloMonitor advanced(cfg);
  const std::uint64_t lat[] = {10, 500, 40, 250, 90, 70, 320, 15};
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t t = (i < 4 ? 12 + 9 * i : 60 + 9 * (i - 4)) * kSec;
    fed.record(t, lat[i]);
    advanced.record(t, lat[i]);
  }
  fed.finalize();
  advanced.advance_to(200 * kSec);
  advanced.finalize();

  struct Want {
    std::uint64_t start_sec, count, p50_us, p95_us, p99_us;
    bool violated;
  };
  const Want want[] = {
      {10, 1, 10, 10, 10, false},    {20, 1, 500, 500, 500, true},
      {30, 2, 40, 250, 250, true},   {40, 0, 0, 0, 0, true},
      {50, 0, 0, 0, 0, true},        {60, 2, 70, 90, 90, false},
      {70, 1, 320, 320, 320, true},  {80, 1, 15, 15, 15, false}};
  for (const SloMonitor* slo : {&fed, &advanced}) {
    ASSERT_EQ(slo->windows().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      const SloWindow& w = slo->windows()[i];
      EXPECT_EQ(w.start_sec, want[i].start_sec) << i;
      EXPECT_EQ(w.count, want[i].count) << i;
      EXPECT_EQ(w.p50_us, want[i].p50_us) << i;
      EXPECT_EQ(w.p95_us, want[i].p95_us) << i;
      EXPECT_EQ(w.p99_us, want[i].p99_us) << i;
      EXPECT_EQ(w.violated, want[i].violated) << i;
    }
    EXPECT_EQ(slo->burn_per_mille(), 625u);
    const std::vector<SloViolation> runs = slo->violations();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].start_sec, 20u);
    EXPECT_EQ(runs[0].end_sec, 60u);
    EXPECT_EQ(runs[1].start_sec, 70u);
    EXPECT_EQ(runs[1].end_sec, 80u);
  }
}

TEST(NearestRank, TakesTheCeilRankClampedToTheSample) {
  const std::vector<std::uint64_t> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(nearest_rank(v, 0.50), 5u);   // ⌈5⌉ = 5th
  EXPECT_EQ(nearest_rank(v, 0.95), 10u);  // ⌈9.5⌉ = 10th
  EXPECT_EQ(nearest_rank(v, 0.0), 1u);    // rank clamps up to 1
  EXPECT_EQ(nearest_rank(v, 1.5), 10u);   // and down to n
  EXPECT_EQ(nearest_rank({}, 0.5), 0u);
}

// ---- Live series: the closed-window rule while a run is in progress ----
//
// The OnlineSloMonitor suite drives SloMonitor online, through record()
// and advance_to() as the autoscaler does.  The current, not-yet-elapsed
// window must never count as violated, and leading/trailing empty windows
// stay excluded.

TEST(OnlineSloMonitor, OpenWindowIsNeverViolated) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  // One over-target sample in the window [0,10), queried mid-window: the
  // window has not elapsed, so nothing is closed and nothing is violated.
  slo.record(2 * kSec, 999);
  slo.advance_to(9 * kSec);
  EXPECT_TRUE(slo.windows().empty());
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.violated_streak(), 0);
  // The instant the window elapses it closes — and is violated.
  slo.advance_to(10 * kSec);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_TRUE(slo.windows()[0].violated);
  EXPECT_EQ(slo.violated_streak(), 1);
}

TEST(OnlineSloMonitor, CurrentEmptyWindowDoesNotCountAsViolated) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 10);
  // Sinks silent since t=10 s; at t=29 s the windows [10,20) has closed
  // (violated: silence after traffic), but [20,30) is still open and must
  // NOT be counted even though it is empty so far.
  slo.advance_to(29 * kSec);
  ASSERT_EQ(slo.windows().size(), 2u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_EQ(slo.violated_windows(), 1u);
}

TEST(OnlineSloMonitor, LeadingEmptyWindowsAreSkipped) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  // No traffic at all until t=95 s: advancing time alone creates nothing.
  slo.advance_to(90 * kSec);
  EXPECT_TRUE(slo.windows().empty());
  slo.record(95 * kSec, 10);
  slo.advance_to(100 * kSec);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].start_sec, 90u);
  EXPECT_FALSE(slo.windows()[0].violated);
}

TEST(OnlineSloMonitor, TrailingEmptyWindowsAreTrimmedAtFinalize) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 10);
  // Run ends at t=60 s with the sinks silent since t=10 s.  Live, the
  // silent closed windows count as violated; at finalize they turn out to
  // be the shutdown tail and are excluded.
  slo.advance_to(60 * kSec);
  EXPECT_EQ(slo.windows().size(), 6u);
  EXPECT_EQ(slo.violated_windows(), 5u);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.burn_per_mille(), 0u);
}

TEST(OnlineSloMonitor, InteriorEmptyWindowStaysViolatedThroughFinalize) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(35 * kSec, 100);
  slo.advance_to(40 * kSec);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 4u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_TRUE(slo.windows()[2].violated);
  EXPECT_FALSE(slo.windows()[3].violated);
  EXPECT_EQ(slo.burn_per_mille(), 500u);
}

TEST(OnlineSloMonitor, RecordPastOpenWindowClosesIt) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);   // violated once closed
  slo.record(15 * kSec, 10);   // lands in the next window, closing [0,10)
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_TRUE(slo.windows()[0].violated);
  EXPECT_EQ(slo.windows()[0].count, 1u);
}

TEST(OnlineSloMonitor, StreaksTrackTheTailOfTheClosedSeries) {
  SloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 999);    // w0 violated
  slo.record(15 * kSec, 999);   // w1 violated
  slo.record(25 * kSec, 10);    // w2 fine
  slo.record(35 * kSec, 10);    // w3 fine
  slo.advance_to(30 * kSec);
  EXPECT_EQ(slo.violated_streak(), 0);
  EXPECT_EQ(slo.ok_streak(), 1);
  slo.advance_to(40 * kSec);
  EXPECT_EQ(slo.ok_streak(), 2);
  EXPECT_EQ(slo.violated_windows(), 2u);
}

// Boundary pins for the windowed-percentile fix: the report's whole-run
// window ends exactly at the run duration, and a final sink arrival landing
// on that boundary is a real sample.  The old half-open filter dropped it
// and reported the previous (stale) window's tail.

TEST(LatencyWindowBoundary, ArrivalExactlyOnWindowEndIsIncluded) {
  metrics::LatencySeries s;
  s.add(1 * kSec, 10'000);    // 10 ms early on
  s.add(420 * kSec, 90'000);  // final arrival lands on the run-end boundary
  const auto p99 = s.percentile_ms(0.99, 0, 420 * kSec);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 90.0);  // the off-by-one reported 10 ms here
  const auto med = s.median_ms(0, 420 * kSec);
  ASSERT_TRUE(med.has_value());
  EXPECT_DOUBLE_EQ(*med, 90.0);  // nearest-rank over both samples
}

TEST(LatencyWindowBoundary, LoneBoundarySampleStillYieldsAValue) {
  metrics::LatencySeries s;
  s.add(60 * kSec, 25'000);
  // A window whose only sample sits on its end must not read as empty.
  const auto p = s.percentile_ms(0.99, 50 * kSec, 60 * kSec);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 25.0);
}

TEST(LatencyWindowBoundary, SamplesPastTheWindowStayExcluded) {
  metrics::LatencySeries s;
  s.add(5 * kSec, 10'000);
  s.add(10 * kSec, 20'000);      // on the boundary: in
  s.add(10 * kSec + 1, 99'000);  // one tick past: out
  const auto p = s.percentile_ms(0.99, 0, 10 * kSec);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 20.0);
}

}  // namespace
}  // namespace rill::obs
