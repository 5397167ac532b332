#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::quick_experiment;
using workloads::DagKind;
using workloads::ScaleKind;

TEST(StrategyFactory, ProducesAllKinds) {
  for (StrategyKind k :
       {StrategyKind::DSM, StrategyKind::DCR, StrategyKind::CCR}) {
    const auto s = make_strategy(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(StrategyNames, AreStable) {
  EXPECT_EQ(to_string(StrategyKind::DSM), "DSM");
  EXPECT_EQ(to_string(StrategyKind::DCR), "DCR");
  EXPECT_EQ(to_string(StrategyKind::CCR), "CCR");
}

// configure() is one table over the five kinds: acking scope, checkpoint
// wiring and periodic waves.  Delta checkpointing is not in the table —
// COMMITs write deltas exactly when config().ckpt_delta is on, whatever
// the kind.
TEST(SessionProfile, ConfigureAppliesEachKindsRow) {
  using dsps::CheckpointMode;
  struct Row {
    StrategyKind kind;
    bool user_acking;
    CheckpointMode wiring;
    bool periodic;
  };
  const Row rows[] = {
      {StrategyKind::DSM, true, CheckpointMode::Wave, true},
      {StrategyKind::DSM_T, true, CheckpointMode::Wave, true},
      {StrategyKind::DCR, false, CheckpointMode::Wave, false},
      {StrategyKind::CCR, false, CheckpointMode::Capture, false},
      {StrategyKind::FGM, false, CheckpointMode::Wave, false},
  };
  for (const Row& row : rows) {
    for (const bool delta : {false, true}) {
      SCOPED_TRACE(std::string(to_string(row.kind)) +
                   (delta ? " ckpt_delta=1" : " ckpt_delta=0"));
      dsps::PlatformConfig cfg;
      cfg.ckpt_delta = delta;
      cfg.key_cardinality = 100000;  // cold keys: a delta stays small
      testutil::Harness h(testutil::cold_keyed_chain(), cfg);
      dsps::Platform& p = h.p();
      make_strategy(row.kind)->configure(p);
      EXPECT_EQ(p.user_acking(), row.user_acking);
      EXPECT_EQ(p.checkpoint_mode(), row.wiring);
      EXPECT_EQ(p.coordinator().periodic_running(), row.periodic);

      // Two waves in the session's wiring, ten seconds apart: the second
      // has a committed base, so it is a delta iff ckpt_delta is on.
      p.coordinator().stop_periodic();
      p.start();
      int committed = 0;
      for (int wave = 0; wave < 2; ++wave) {
        h.run_for(time::sec(wave == 0 ? 60 : 10));
        p.coordinator().run_checkpoint(p.checkpoint_mode(), [&](bool ok) {
          if (ok) ++committed;
        });
        h.run_for(time::sec(5));
      }
      ASSERT_EQ(committed, 2);
      EXPECT_EQ(p.coordinator().stats().delta_blobs > 0, delta);
    }
  }
}

/// The paper's headline orderings, swept over (DAG × scale) cells.
struct CompareParams {
  workloads::DagKind dag;
  workloads::ScaleKind scale;
};

class StrategyOrdering : public ::testing::TestWithParam<CompareParams> {};

TEST_P(StrategyOrdering, RestoreCcrBelowDcrBelowDsm) {
  const auto [dag, scale] = GetParam();
  const auto dsm = quick_experiment(dag, StrategyKind::DSM, scale);
  const auto dcr = quick_experiment(dag, StrategyKind::DCR, scale);
  const auto ccr = quick_experiment(dag, StrategyKind::CCR, scale);

  ASSERT_TRUE(dsm.report.restore_sec && dcr.report.restore_sec &&
              ccr.report.restore_sec);
  EXPECT_LT(*ccr.report.restore_sec, *dcr.report.restore_sec)
      << workloads::to_string(dag);
  EXPECT_LT(*dcr.report.restore_sec, *dsm.report.restore_sec)
      << workloads::to_string(dag);

  // Reliability column: DSM replays, the others never.
  EXPECT_GT(dsm.report.replayed_messages, 0u);
  EXPECT_EQ(dcr.report.replayed_messages, 0u);
  EXPECT_EQ(ccr.report.replayed_messages, 0u);

  // Recovery exists only for DSM.
  EXPECT_TRUE(dsm.report.recovery_sec.has_value());
  EXPECT_FALSE(dcr.report.recovery_sec.has_value());
  EXPECT_FALSE(ccr.report.recovery_sec.has_value());

  // Rebalance duration is strategy-independent (paper: ≈7.26 s).
  for (const auto* r : {&dsm, &dcr, &ccr}) {
    EXPECT_GT(r->report.rebalance_sec, 5.5);
    EXPECT_LT(r->report.rebalance_sec, 9.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StrategyOrdering,
    ::testing::Values(CompareParams{DagKind::Linear, ScaleKind::In},
                      CompareParams{DagKind::Diamond, ScaleKind::In},
                      CompareParams{DagKind::Star, ScaleKind::Out},
                      CompareParams{DagKind::Traffic, ScaleKind::Out},
                      CompareParams{DagKind::Grid, ScaleKind::In}),
    [](const ::testing::TestParamInfo<CompareParams>& info) {
      return std::string(workloads::to_string(info.param.dag)) + "_" +
             (info.param.scale == ScaleKind::In ? "in" : "out");
    });

TEST(StrategyCompare, StabilizationDsmIsWorst) {
  const auto dsm = quick_experiment(DagKind::Grid, StrategyKind::DSM,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  const auto dcr = quick_experiment(DagKind::Grid, StrategyKind::DCR,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  const auto ccr = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  ASSERT_TRUE(dsm.report.stabilization_sec.has_value());
  ASSERT_TRUE(dcr.report.stabilization_sec.has_value());
  ASSERT_TRUE(ccr.report.stabilization_sec.has_value());
  EXPECT_GT(*dsm.report.stabilization_sec, *dcr.report.stabilization_sec);
  EXPECT_LE(*ccr.report.stabilization_sec, *dcr.report.stabilization_sec);
}

TEST(StrategyCompare, DrainTimeGrowsWithCriticalPath) {
  // §5.1: the DCR/CCR drain-time gap is proportional to the DAG's critical
  // path; Linear-50 shows a much larger delta than Linear-5.
  auto drain_for = [](int n, StrategyKind k) {
    workloads::ExperimentConfig cfg;
    cfg.custom_topology = workloads::build_linear_n(n);
    cfg.strategy = k;
    cfg.scale = ScaleKind::In;
    cfg.run_duration = time::sec(300);
    cfg.migrate_at = time::sec(60);
    return workloads::run_experiment(cfg).report.drain_sec;
  };
  const double dcr5 = drain_for(5, StrategyKind::DCR);
  const double ccr5 = drain_for(5, StrategyKind::CCR);
  const double dcr50 = drain_for(50, StrategyKind::DCR);
  const double ccr50 = drain_for(50, StrategyKind::CCR);

  EXPECT_GT(dcr5, ccr5);
  EXPECT_GT(dcr50, ccr50);
  // The delta grows markedly with depth (paper: 0.65 s → 4.35 s).
  EXPECT_GT(dcr50 - ccr50, 3.0 * (dcr5 - ccr5));
}

}  // namespace
}  // namespace rill::core
