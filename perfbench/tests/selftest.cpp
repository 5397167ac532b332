// Self-test of the benchmark's own rules: the percentile rule, the failure
// classifier, the metric-name grammar and seed forking.  Plain checks that
// stay on in every build type; exits 1 on the first failure.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;
using rill::core::StrategyKind;
using rill::workloads::ExperimentResult;

/// A result that passes every check: CCR, migrated, nothing lost.
ExperimentResult clean() {
  ExperimentResult r;
  r.strategy = StrategyKind::CCR;
  r.migration_succeeded = true;
  r.report.restore_sec = 18.9;
  r.report.drain_sec = 11.4;
  r.report.latency_p99_ms = 70413.0;
  return r;
}

void percentile_rule() {
  // Ten samples beyond p50 need n >= 20; beyond p90, n >= 100; beyond
  // p99, n >= 1000.
  EXPECT(!highest_supported_percentile(0).has_value());
  EXPECT(!highest_supported_percentile(19).has_value());
  EXPECT(highest_supported_percentile(20) == 0.5);
  EXPECT(highest_supported_percentile(99) == 0.5);
  EXPECT(highest_supported_percentile(100) == 0.9);
  EXPECT(highest_supported_percentile(999) == 0.9);
  EXPECT(highest_supported_percentile(1000) == 0.99);
  EXPECT(highest_supported_percentile(10000) == 0.999);
  EXPECT(samples_beyond(100, 0.9) == 10);
  EXPECT(samples_beyond(101, 0.9) == 10);  // rank ceil(90.9) = 91
  EXPECT(samples_beyond(10, 1.0) == 0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(nearest_rank(v, 0.5) == 50.0);
  EXPECT(nearest_rank(v, 0.9) == 90.0);
  EXPECT(nearest_rank(v, 1.0) == 100.0);
  EXPECT(nearest_rank({7.0}, 0.9) == 7.0);
  EXPECT(!nearest_rank({}, 0.5).has_value());
}

void classifier() {
  EXPECT(failure_reasons(clean()).empty());

  ExperimentResult r = clean();
  r.report.restore_sec = -539.6;  // the autoscale arm's known report
  EXPECT(failure_reasons(r).size() == 1);

  r = clean();
  r.report.catchup_sec = std::numeric_limits<double>::quiet_NaN();
  EXPECT(failure_reasons(r).size() == 1);

  r = clean();
  r.report.drain_sec = -0.001;
  EXPECT(failure_reasons(r).size() == 1);

  r = clean();
  r.accounting_violations = 1;
  EXPECT(failure_reasons(r).size() == 1);

  r = clean();
  r.post_commit_arrivals = 3;
  EXPECT(failure_reasons(r).size() == 1);

  r = clean();
  r.migration_succeeded = false;
  EXPECT(failure_reasons(r).size() == 1);

  // Only DSM may lose events (it replays them).
  for (const StrategyKind s :
       {StrategyKind::DCR, StrategyKind::CCR, StrategyKind::FGM}) {
    r = clean();
    r.strategy = s;
    r.report.lost_events = 1;
    EXPECT(failure_reasons(r).size() == 1);
  }
  r = clean();
  r.strategy = StrategyKind::DSM;
  r.report.lost_events = 108;
  EXPECT(failure_reasons(r).empty());

  // Every reason is reported, not just the first.
  r = clean();
  r.report.restore_sec = -1.0;
  r.accounting_violations = 2;
  r.migration_succeeded = false;
  EXPECT(failure_reasons(r).size() == 3);
}

void name_grammar() {
  for (const char* ok : {"sim_s_per_wall_s", "setup_s", "sim.events",
                         "kv.put_get_ns", "a-b", "9lives", "X"}) {
    EXPECT(valid_metric_name(ok));
  }
  for (const char* bad : {"", "has space", "slash/y", "_lead", ".lead",
                          "-lead", "uni\xc3\xa9", "quote\"", "p99%"}) {
    EXPECT(!valid_metric_name(bad));
  }
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
}

void seeds_and_workloads() {
  // SplitMix64 reference outputs for seed 0.
  SplitMix64 sm(0);
  EXPECT(sm.next() == 0xe220a8397b1dcdafull);
  EXPECT(sm.next() == 0x6e789e6aa1b965f4ull);
  EXPECT(fork_seed(0, 0) == 0xe220a8397b1dcdafull);
  EXPECT(fork_seed(0, 1) == 0x6e789e6aa1b965f4ull);
  EXPECT(fork_seed(7, 3) == fork_seed(7, 3));
  EXPECT(fork_seed(7, 0) != fork_seed(8, 0));

  const auto sweep = experiments_for(Workload::PaperSweep, 1);
  EXPECT(sweep.size() >= 100);
  std::size_t arms = 0;
  for (const Experiment& e : sweep) {
    EXPECT(valid_metric_name(e.label));
    if (!e.hand_invoked) ++arms;
  }
  EXPECT(arms == static_cast<std::size_t>(kSweepForks));
  EXPECT(experiments_for(Workload::PaperSweep, 1, 1).size() == 41);
  EXPECT(experiments_for(Workload::GridCcrLarge, 5)[0].config.platform.seed ==
         fork_seed(5, 0));

  for (const char* w : {"grid_ccr_large", "grid_dsm_delta_large",
                        "paper_sweep"}) {
    EXPECT(parse_workload(w).has_value() && to_string(*parse_workload(w)) == w);
  }
  EXPECT(!parse_workload("grid").has_value());
}

}  // namespace

int main() {
  percentile_rule();
  classifier();
  name_grammar();
  seeds_and_workloads();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::puts("selftest: all checks passed");
  return 0;
}
