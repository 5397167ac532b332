// DSM-T: Storm's rebalance timeout (§2).  The user estimates how long the
// dataflow needs to drain; under-estimates still lose events, over-
// estimates idle the dataflow.  DCR replaces the estimate with a verified
// drain (the PREPARE rearguard).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::core {
namespace {

using workloads::DagKind;
using workloads::ScaleKind;

struct Outcome {
  workloads::ExperimentResult result;
  std::uint64_t executed{0};  ///< Engine::executed() at the end of the run
};

Outcome run_with(std::unique_ptr<MigrationStrategy> strategy,
                 DagKind dag = DagKind::Linear) {
  // The runner resolves the strategy by kind, so drive the platform
  // directly here to control the timeout value.
  sim::Engine engine;
  dsps::PlatformConfig cfg;
  dsps::Platform platform(engine, cfg);
  platform.setup_infrastructure();
  dsps::Topology topo = workloads::build_dag(dag);
  const auto plan = workloads::vm_plan_for(topo);
  const auto d2 = platform.cluster().provision_n(cluster::VmType::D2,
                                                 plan.default_d2_vms, "d2");
  dsps::RoundRobinScheduler sched;
  platform.deploy(std::move(topo), d2, sched);
  metrics::Collector collector;
  platform.set_listener(&collector);

  strategy->configure(platform);
  platform.start();

  engine.schedule_detached(time::sec(60), [&] {
    collector.set_request_time(engine.now());
    const auto d3 = platform.cluster().provision_n(
        cluster::VmType::D3, plan.scale_in_d3_vms, "d3");
    dsps::MigrationPlan mplan;
    mplan.target_vms = d3;
    mplan.scheduler = &sched;
    strategy->migrate(platform, std::move(mplan), [](bool) {});
  });
  engine.run_until(static_cast<SimTime>(time::sec(420)));
  platform.stop();

  workloads::ExperimentResult r;
  r.phases = strategy->phases();
  r.rebalance = platform.rebalancer().last();
  r.report.replayed_messages = collector.replayed_messages();
  r.report.lost_events = collector.lost_user_events();
  r.collector = std::move(collector);
  return Outcome{std::move(r), engine.executed()};
}

workloads::ExperimentResult run_with_timeout(SimDuration timeout) {
  return run_with(make_dsm_timeout_strategy(timeout)).result;
}

TEST(DsmTimeout, FactoryProducesKind) {
  const auto s = make_strategy(StrategyKind::DSM_T);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), StrategyKind::DSM_T);
  EXPECT_EQ(s->name(), "DSM-T");
}

TEST(DsmTimeout, ZeroTimeoutIsPlainDsm) {
  // DSM-T is DSM with a rebalance timeout: at 0 it is the same run, event
  // for event, and only the kind tells them apart.
  auto timeout0 = make_dsm_timeout_strategy(0);
  EXPECT_EQ(timeout0->kind(), StrategyKind::DSM_T);
  const Outcome t = run_with(std::move(timeout0));
  const Outcome d = run_with(make_strategy(StrategyKind::DSM));

  EXPECT_EQ(t.executed, d.executed);
  const PhaseTimes& tp = t.result.phases;
  const PhaseTimes& dp = d.result.phases;
  EXPECT_EQ(tp.request_at, dp.request_at);
  EXPECT_EQ(tp.rebalance_invoked, dp.rebalance_invoked);
  EXPECT_EQ(tp.rebalance_completed, dp.rebalance_completed);
  EXPECT_EQ(tp.init_complete, dp.init_complete);
  EXPECT_EQ(tp.migration_done, dp.migration_done);
  ASSERT_TRUE(t.result.rebalance.has_value());
  ASSERT_TRUE(d.result.rebalance.has_value());
  EXPECT_EQ(t.result.rebalance->killed_at, d.result.rebalance->killed_at);
  EXPECT_EQ(t.result.rebalance->events_lost_in_queues,
            d.result.rebalance->events_lost_in_queues);

  const metrics::Collector& tc = t.result.collector;
  const metrics::Collector& dc = d.result.collector;
  EXPECT_EQ(tc.roots_emitted(), dc.roots_emitted());
  EXPECT_EQ(tc.sink_arrivals(), dc.sink_arrivals());
  EXPECT_EQ(tc.replayed_messages(), dc.replayed_messages());
  EXPECT_EQ(tc.lost_user_events(), dc.lost_user_events());
  EXPECT_GT(dc.replayed_messages(), 0u);  // a real DSM migration happened
}

TEST(DsmTimeout, GenerousTimeoutDrainsInFlightEvents) {
  // Linear's pipeline empties in <1 s; a 5 s estimate catches everything
  // in flight, so nothing old is lost at the kill.
  const auto r = run_with_timeout(time::sec(5));
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_EQ(r.rebalance->events_lost_in_queues, 0u);
  // But new-event losses still occur after the kill (source resumed while
  // workers start up) — the estimate does not fix DSM's recovery phase.
  EXPECT_GT(r.report.replayed_messages, 0u);
}

TEST(DsmTimeout, ZeroLikeTimeoutLosesInFlightEvents) {
  // A 50 ms estimate is an under-estimate for a 500 ms pipeline.
  const auto r = run_with_timeout(time::ms(50));
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_GT(r.rebalance->events_lost_in_queues +
                r.collector.lost_user_events(),
            0u);
}

TEST(DsmTimeout, OverestimateIdlesTheDataflow) {
  // A 30 s estimate pauses the sources for 30 s before the ~7 s command:
  // the kill happens a full timeout after the request.
  const auto r = run_with_timeout(time::sec(30));
  ASSERT_TRUE(r.rebalance.has_value());
  const double wait = time::to_sec(static_cast<SimDuration>(
      r.rebalance->killed_at - r.rebalance->invoked_at));
  EXPECT_GT(wait, 29.0);
  // Output was idle during the wait: the dataflow drains within ~1 s and
  // produces nothing for the rest of the window.
  const auto req_sec =
      static_cast<std::size_t>(r.phases.request_at / 1'000'000ull);
  EXPECT_EQ(r.collector.output().rate_over(req_sec + 5, 20), 0.0);
}

TEST(DsmTimeout, SourcesPausedDuringWindowResumeAfter) {
  const auto r = run_with_timeout(time::sec(10));
  const auto req_sec =
      static_cast<std::size_t>(r.phases.request_at / 1'000'000ull);
  // No fresh input during the timeout window…
  EXPECT_EQ(r.collector.input().rate_over(req_sec + 1, 8), 0.0);
  // …and input resumes after the command completes — slowly at first,
  // because the unacked in-flight losses keep the max-pending throttle
  // engaged until their 30 s timeouts fire.
  ASSERT_TRUE(r.rebalance.has_value());
  const auto done_sec = static_cast<std::size_t>(
      r.rebalance->command_completed_at / 1'000'000ull);
  EXPECT_GT(r.collector.input().rate_over(done_sec + 1, 120), 2.0);
}

}  // namespace
}  // namespace rill::core
