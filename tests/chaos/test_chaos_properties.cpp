// Chaos property sweep (satellite of DESIGN.md §7): a random single
// protocol-level fault — KV outage, KV latency spike, control drop, net
// delay — must never cost DCR/CCR their exactly-once guarantee, whether
// the migration aborts, retries, or sails through untouched.  And chaos
// must respect invariant 7: identical seeds give identical runs.
#include <gtest/gtest.h>

#include <ostream>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;
using workloads::DagKind;
using workloads::ScaleKind;

struct ChaosCell {
  DagKind dag;
  StrategyKind strategy;
  std::uint64_t seed;
};

// Without it gtest prints the cell as raw bytes, including the padding
// before `seed`, and that text lands in the ctest test name.
void PrintTo(const ChaosCell& cell, std::ostream* os) {
  *os << workloads::to_string(cell.dag) << ", "
      << core::to_string(cell.strategy) << ", seed " << cell.seed;
}

std::string cell_name(const ::testing::TestParamInfo<ChaosCell>& info) {
  return std::string(workloads::to_string(info.param.dag)) + "_" +
         std::string(core::to_string(info.param.strategy)) + "_s" +
         std::to_string(info.param.seed);
}

constexpr SimDuration kRun = time::sec(480);

workloads::ExperimentConfig chaos_property_cfg(const ChaosCell& cell) {
  workloads::ExperimentConfig cfg;
  cfg.dag = cell.dag;
  cfg.strategy = cell.strategy;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = cell.seed;
  cfg.platform.ack_timeout = time::sec(5);
  cfg.platform.init_deadline = time::sec(60);
  cfg.run_duration = kRun;
  cfg.migrate_at = time::sec(60);
  cfg.controller.fallback_to_dsm = false;  // fallback would change semantics
  cfg.controller.retry_backoff = time::sec(5);

  // One random protocol fault per cell, derived from the cell seed on its
  // own stream so the platform streams stay untouched.
  Rng plan_rng(cell.seed * 977 + 13);
  cfg.chaos = chaos::random_single_fault(plan_rng, time::sec(40),
                                         time::sec(200),
                                         /*protocol_only=*/true);
  return cfg;
}

class ChaosSweep : public ::testing::TestWithParam<ChaosCell> {};

TEST_P(ChaosSweep, ProtocolFaultsNeverBreakExactlyOnce) {
  const workloads::ExperimentConfig cfg = chaos_property_cfg(GetParam());
  SCOPED_TRACE("chaos plan: " + cfg.chaos.describe());
  const auto r = workloads::run_experiment(cfg);

  // Whether the attempt aborted, retried or succeeded, the transactional
  // protocol must keep invariants 2–4: no loss, no replay, no post-commit
  // leakage, and exactly one arrival per settled root and sink path.
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  // Conservation ledger: every executor must place every delivered user
  // event in exactly one terminal bucket — the loss counters are mutually
  // exclusive, so a double- or un-counted delivery shows up here.
  EXPECT_EQ(r.accounting_violations, 0u);

  const SimTime settle = static_cast<SimTime>(kRun - time::sec(120));
  for (const auto& [origin, rec] : r.collector.roots()) {
    if (rec.born_at < settle) {
      ASSERT_EQ(rec.sink_arrivals, r.sink_paths)
          << "origin " << origin << " born at " << time::at_sec(rec.born_at)
          << " s under [" << cfg.chaos.describe() << "]";
    }
  }

  // Aborted attempts must have ended with the sources flowing again —
  // a root born well after the last possible fault window proves it.
  std::uint64_t late_roots = 0;
  for (const auto& [origin, rec] : r.collector.roots()) {
    (void)origin;
    if (rec.born_at > static_cast<SimTime>(time::sec(400))) ++late_roots;
  }
  EXPECT_GT(late_roots, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolFaults, ChaosSweep,
    ::testing::Values(ChaosCell{DagKind::Linear, StrategyKind::DCR, 3},
                      ChaosCell{DagKind::Linear, StrategyKind::DCR, 11},
                      ChaosCell{DagKind::Linear, StrategyKind::DCR, 2024},
                      ChaosCell{DagKind::Linear, StrategyKind::CCR, 3},
                      ChaosCell{DagKind::Linear, StrategyKind::CCR, 11},
                      ChaosCell{DagKind::Linear, StrategyKind::CCR, 2024},
                      ChaosCell{DagKind::Grid, StrategyKind::DCR, 3},
                      ChaosCell{DagKind::Grid, StrategyKind::DCR, 11},
                      ChaosCell{DagKind::Grid, StrategyKind::CCR, 3},
                      ChaosCell{DagKind::Grid, StrategyKind::CCR, 11},
                      ChaosCell{DagKind::Grid, StrategyKind::CCR, 2024}),
    cell_name);

// Capture-window regression (CCR): a KV outage straddling the COMMIT put
// forces store-level retries while captured events keep arriving between
// the serialized snapshot and the eventual ack.  Those late captures must
// be re-persisted before the wave acks — under the old code they lived
// only in the dropped in-memory list and vanished at kill, surfacing as
// lost events (or, after a rollback, as double replays).  Run with delta
// checkpointing both off and on: the pending list always ships full.
TEST(CaptureWindow, CommitRetryNeverDropsLateCapturedEvents) {
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "ckpt_delta=1" : "ckpt_delta=0");
    workloads::ExperimentConfig cfg;
    cfg.dag = DagKind::Grid;
    cfg.strategy = StrategyKind::CCR;
    cfg.scale = ScaleKind::In;
    cfg.platform.seed = 42;
    cfg.platform.ckpt_delta = delta;
    cfg.run_duration = time::sec(420);
    cfg.migrate_at = time::sec(60);
    // The outage opens with the COMMIT puts in flight and closes inside
    // the per-operation retry budget: the wave never re-runs, but the ack
    // arrives seconds after the pending list was first serialized.
    cfg.chaos.kv_outage(time::sec(60), time::sec(2), -1);
    const auto r = workloads::run_experiment(cfg);

    ASSERT_GT(r.chaos.kv_outage_hits, 0u);
    EXPECT_GT(r.store.retries, 0u);
    EXPECT_TRUE(r.migration_succeeded);
    EXPECT_GT(r.capture_handoff, 0u);  // captured events did ride the blob
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    EXPECT_EQ(r.lost_at_kill, 0u);
    EXPECT_EQ(r.post_commit_arrivals, 0u);
    EXPECT_EQ(r.accounting_violations, 0u);
    const SimTime settle = static_cast<SimTime>(time::sec(300));
    for (const auto& [origin, rec] : r.collector.roots()) {
      if (rec.born_at < settle) {
        ASSERT_EQ(rec.sink_arrivals, r.sink_paths)
            << "origin " << origin << " born at "
            << time::at_sec(rec.born_at) << " s";
      }
    }
  }
}

// Invariant 7 with chaos in the loop: the same (seed, plan) pair must
// reproduce the run exactly — fault hits, recovery path and all series.
TEST(ChaosDeterminism, IdenticalSeedsGiveIdenticalChaoticRuns) {
  const ChaosCell cell{DagKind::Grid, StrategyKind::CCR, 11};
  const auto a = workloads::run_experiment(chaos_property_cfg(cell));
  const auto b = workloads::run_experiment(chaos_property_cfg(cell));

  EXPECT_EQ(a.chaos.total_hits(), b.chaos.total_hits());
  EXPECT_EQ(a.chaos.kv_outage_hits, b.chaos.kv_outage_hits);
  EXPECT_EQ(a.chaos.control_dropped, b.chaos.control_dropped);
  EXPECT_EQ(a.recovery.attempts, b.recovery.attempts);
  EXPECT_EQ(a.recovery.aborted_attempts, b.recovery.aborted_attempts);
  EXPECT_EQ(a.migration_succeeded, b.migration_succeeded);
  EXPECT_EQ(a.report.wave_retries, b.report.wave_retries);
  EXPECT_EQ(a.report.kv_retries, b.report.kv_retries);
  EXPECT_EQ(a.collector.roots_emitted(), b.collector.roots_emitted());
  EXPECT_EQ(a.collector.sink_arrivals(), b.collector.sink_arrivals());
  EXPECT_EQ(a.collector.output().buckets(), b.collector.output().buckets());
  EXPECT_EQ(a.collector.latency().size(), b.collector.latency().size());
}

}  // namespace
}  // namespace rill
