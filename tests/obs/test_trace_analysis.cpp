#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"

namespace rill::obs::analysis {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceParse, EmptyAndBlankInputYieldNothing) {
  ParseStats stats;
  EXPECT_TRUE(parse_jsonl("", &stats).empty());
  EXPECT_EQ(stats.lines, 0u);

  ParseStats stats2;
  EXPECT_TRUE(parse_jsonl("\n  \n\t\n", &stats2).empty());
  EXPECT_EQ(stats2.lines, 0u);
  EXPECT_TRUE(stats2.errors.empty());
}

TEST(TraceParse, MalformedLinesAreReportedAndSkipped) {
  const std::string text =
      "{\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":2,\"cat\":\"a\",\"name\":\"ok\"}\n"
      "not json at all\n"
      "{\"ts\":5,\"pid\":1,\"tid\":2,\"cat\":\"a\",\"name\":\"no_ph\"}\n"
      "{\"ph\":\"i\",\"ts\":bogus,\"pid\":1,\"tid\":2}\n"
      "{\"ph\":\"i\",\"ts\":9} trailing\n";
  ParseStats stats;
  const std::vector<TraceEvent> events = parse_jsonl(text, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "ok");
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_EQ(stats.parsed, 1u);
  ASSERT_EQ(stats.errors.size(), 4u);
  EXPECT_NE(stats.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(stats.errors[1].find("missing \"ph\""), std::string::npos);
  EXPECT_NE(stats.errors[2].find("bad number"), std::string::npos);
  EXPECT_NE(stats.errors[3].find("trailing garbage"), std::string::npos);
}

TEST(TraceParse, EscapedStringsAreUnescaped) {
  const std::string text =
      "{\"ph\":\"i\",\"ts\":1,\"pid\":4,\"tid\":0,\"cat\":\"chaos\","
      "\"name\":\"drop \\\"q\\\"\",\"args\":{\"detail\":\"a\\\\b\\nc\"}}\n";
  const std::vector<TraceEvent> events = parse_jsonl(text);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "drop \"q\"");
  const std::string* detail = events[0].arg_raw("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(*detail, "a\\b\nc");
}

TEST(TraceParse, U64ArgValuesKeepFullPrecision) {
  // 2^64−1 would be mangled by a double-based parser.
  const std::string text =
      "{\"ph\":\"X\",\"ts\":1,\"pid\":6,\"tid\":255,\"dur\":2,"
      "\"cat\":\"tuple\",\"name\":\"tuple\","
      "\"args\":{\"root\":18446744073709551615,\"hops\":1}}\n";
  const std::vector<TraceEvent> events = parse_jsonl(text);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg_u64("root"), 18446744073709551615ull);
  EXPECT_EQ(events[0].arg_u64("missing"), std::nullopt);
}

TEST(TraceParse, RoundTripsTracerJsonlOutput) {
  // Whatever the Tracer exports, the parser must accept verbatim —
  // including open spans and boolean/string args.
  Tracer tr;
  const SpanId open = tr.begin(kTrackController, "strategy", "drain",
                               {arg("why", std::string("mid \"run\""))});
  (void)open;
  tr.instant(kTrackChaos, "chaos", "kv_outage", {arg("ok", false)});
  tr.counter(kTrackController, "depth", 3.5);

  ParseStats stats;
  const std::vector<TraceEvent> events = parse_jsonl(tr.to_jsonl(), &stats);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(stats.errors.empty());
  EXPECT_EQ(events[0].ph, 'X');
  const std::string* open_flag = events[0].arg_raw("open");
  ASSERT_NE(open_flag, nullptr);
  EXPECT_EQ(*open_flag, "true");
  EXPECT_EQ(*events[1].arg_raw("ok"), "false");
  EXPECT_EQ(*events[2].arg_raw("value"), "3.5");
}

TEST(TraceAnalyze, ReconstructsPhasesAndTuples) {
  Tracer tr;
  tr.instant(kTrackController, "strategy", "request");
  tr.instant(kTrackController, "strategy", "request");  // retry: last wins
  LatencyAttributor at(1);
  at.set_tracer(&tr);
  at.on_root_copy(1, 42, 42, 10, 10);
  at.on_enqueue(1, 20);
  at.on_service_start(1, 25, "sink/0");
  at.on_sink(1, 30);

  const Analysis a = analyze(parse_jsonl(tr.to_jsonl()));
  ASSERT_TRUE(a.phases.request.has_value());
  ASSERT_EQ(a.tuples.size(), 1u);
  EXPECT_EQ(a.tuples[0].root, 42u);
  EXPECT_EQ(a.tuples[0].latency_us, 20u);
  EXPECT_EQ(a.tuples[0].cause_sum(), 20u);
  ASSERT_EQ(a.hops.size(), 1u);
  EXPECT_EQ(a.hops[0].task, "sink/0");
}

TEST(TraceCheck, FlagsSumMismatch) {
  Analysis a;
  TupleView t;
  t.root = 9;
  t.born = 0;
  t.latency_us = 1000;
  t.cause_us[0] = 10;  // sums to 10, not 1000
  a.tuples.push_back(t);
  const CheckResult r = check(a);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.tuples_checked, 1u);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("root=9"), std::string::npos);
}

TEST(TraceCheck, AllowsOneMicroOfRoundingAtTinyLatencies) {
  Analysis a;
  TupleView t;
  t.latency_us = 10;
  t.cause_us[0] = 11;  // diff 1 > 1% of 10, but within absolute slack
  a.tuples.push_back(t);
  EXPECT_TRUE(check(a).ok);
}

TEST(TraceCheck, FlagsNonPauseDominatedMigrationTail) {
  Analysis a;
  a.phases.request = 100;
  TupleView t;
  t.born = 200;
  t.latency_us = 500;
  t.cause_us[static_cast<int>(Cause::Queue)] = 400;
  t.cause_us[static_cast<int>(Cause::Pause)] = 100;
  a.tuples.push_back(t);
  const CheckResult r = check(a);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("dominated by 'queue'"), std::string::npos);
}

TEST(TraceCheck, PassesOnConsistentPauseDominatedTrace) {
  Analysis a;
  a.phases.request = 100;
  for (int i = 0; i < 5; ++i) {
    TupleView t;
    t.root = static_cast<std::uint64_t>(i);
    t.born = 200;
    t.latency_us = 1000;
    t.cause_us[static_cast<int>(Cause::Pause)] = 900;
    t.cause_us[static_cast<int>(Cause::Service)] = 100;
    a.tuples.push_back(t);
  }
  const CheckResult r = check(a);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_EQ(r.tuples_checked, 5u);
}

// ---- golden: the committed small trace -----------------------------------

TEST(TraceGolden, SmallTraceParsesAnalyzesAndChecksClean) {
  const std::string text =
      read_file(std::string(RILL_OBS_DATA_DIR) + "/small_trace.jsonl");
  ASSERT_FALSE(text.empty());

  ParseStats stats;
  const std::vector<TraceEvent> events = parse_jsonl(text, &stats);
  EXPECT_EQ(stats.lines, stats.parsed);
  EXPECT_TRUE(stats.errors.empty())
      << (stats.errors.empty() ? "" : stats.errors[0]);
  ASSERT_EQ(events.size(), 17u);

  const Analysis a = analyze(events);
  ASSERT_TRUE(a.phases.request.has_value());
  EXPECT_EQ(*a.phases.request, 60000000u);
  EXPECT_EQ(*a.phases.checkpoint_done, 60050000u);
  EXPECT_EQ(*a.phases.rebalance_start, 60100000u);
  EXPECT_EQ(*a.phases.rebalance_dur_us, 30000000u);
  EXPECT_EQ(*a.phases.killed_at, 60150000u);
  EXPECT_EQ(*a.phases.first_restored, 90000000u);  // min of the two
  EXPECT_EQ(*a.phases.init_complete, 91000000u);
  EXPECT_EQ(*a.phases.unpause, 92000000u);

  ASSERT_EQ(a.tuples.size(), 4u);
  ASSERT_EQ(a.hops.size(), 2u);

  // Slowest-first, deterministic: the two pause-stalled migration tuples,
  // then the steady-state one, then the tiny max-root tuple.
  const std::vector<std::size_t> slow = slowest_tuples(a, 10);
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(a.tuples[slow[0]].root, 2u);
  EXPECT_EQ(a.tuples[slow[1]].root, 3u);
  EXPECT_EQ(a.tuples[slow[2]].root, 1u);
  EXPECT_EQ(a.tuples[slow[3]].root, 18446744073709551615ull);

  const std::vector<const HopView*> hops = hops_of(a, 1);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0]->task, "map/0");
  EXPECT_EQ(hops[1]->task, "sink/0");

  const CheckResult r = check(a);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_EQ(r.tuples_checked, 4u);
}

TEST(TraceGolden, SloSeriesIgnoresLineOrder) {
  // The golden trace lists a tuple finishing at 1.005 s before one
  // finishing at 0.5001 s; with 1 s windows those land in different
  // windows, so slo_of must order arrivals itself.  Reversing every line
  // must leave the series untouched.
  const std::string text =
      read_file(std::string(RILL_OBS_DATA_DIR) + "/small_trace.jsonl");
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::string reversed;
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    reversed += *it + "\n";
  }

  const SloConfig cfg{/*target_p99_us=*/100'000, /*window_sec=*/1};
  const SloMonitor fwd = slo_of(analyze(parse_jsonl(text)), cfg);
  const SloMonitor rev = slo_of(analyze(parse_jsonl(reversed)), cfg);

  // Windows 0 and 1 hold the two fast tuples, 2..91 are a silent
  // (violated) gap, 92 holds the two pause-stalled migration tuples.
  ASSERT_EQ(fwd.windows().size(), 93u);
  EXPECT_EQ(fwd.windows()[0].count, 1u);
  EXPECT_EQ(fwd.windows()[1].count, 1u);
  EXPECT_EQ(fwd.windows()[92].count, 2u);
  EXPECT_EQ(fwd.violated_windows(), 91u);
  EXPECT_EQ(fwd.burn_per_mille(), 978u);

  ASSERT_EQ(rev.windows().size(), fwd.windows().size());
  for (std::size_t i = 0; i < fwd.windows().size(); ++i) {
    const SloWindow& f = fwd.windows()[i];
    const SloWindow& r = rev.windows()[i];
    EXPECT_EQ(r.start_sec, f.start_sec) << i;
    EXPECT_EQ(r.count, f.count) << i;
    EXPECT_EQ(r.p50_us, f.p50_us) << i;
    EXPECT_EQ(r.p95_us, f.p95_us) << i;
    EXPECT_EQ(r.p99_us, f.p99_us) << i;
    EXPECT_EQ(r.violated, f.violated) << i;
  }
  EXPECT_EQ(rev.burn_per_mille(), fwd.burn_per_mille());
  const std::vector<SloViolation> fv = fwd.violations();
  const std::vector<SloViolation> rv = rev.violations();
  ASSERT_EQ(fv.size(), 1u);
  EXPECT_EQ(fv[0].start_sec, 2u);
  EXPECT_EQ(fv[0].end_sec, 93u);
  ASSERT_EQ(rv.size(), fv.size());
  EXPECT_EQ(rv[0].start_sec, fv[0].start_sec);
  EXPECT_EQ(rv[0].end_sec, fv[0].end_sec);
}

}  // namespace
}  // namespace rill::obs::analysis
