// MigrationController overlapping-request guard (ISSUE 10 satellite).
//
// The controller used to assume a single hand-invoked migration and threw
// on overlap.  The autoscale controller fires requests from a timer, so a
// request arriving while one is in flight (or mid abort→re-pin→retry) is
// routine: it must be queued FIFO — or rejected once the queue is full —
// deterministically, never double-triggered.
#include <gtest/gtest.h>

#include <vector>

#include "chaos/injector.hpp"
#include "core/controller.hpp"
#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::Harness;

struct ControllerRig {
  Harness h;
  std::unique_ptr<MigrationStrategy> strategy;
  std::unique_ptr<MigrationController> controller;
  std::vector<VmId> target_a;
  std::vector<VmId> target_b;

  explicit ControllerRig(StrategyKind kind = StrategyKind::CCR,
                         ControllerConfig cc = {})
      : h(testutil::mini_chain()) {
    strategy = make_strategy(kind);
    strategy->configure(h.p());
    controller =
        std::make_unique<MigrationController>(h.p(), *strategy, cc);
    target_a = h.p().cluster().provision_n(cluster::VmType::D1,
                                           h.p().topology().worker_instances(),
                                           "ta");
    target_b = h.p().cluster().provision_n(cluster::VmType::D3, 1, "tb");
  }

  dsps::MigrationPlan plan_to(const std::vector<VmId>& vms) {
    dsps::MigrationPlan plan;
    plan.target_vms = vms;
    plan.scheduler = &h.scheduler;
    return plan;
  }
};

TEST(ControllerQueue, OverlappingRequestQueuesAndRunsAfter) {
  ControllerRig rig;
  rig.h.p().start();
  rig.h.run_for(time::sec(30));

  std::vector<int> done_order;
  rig.controller->request(rig.plan_to(rig.target_a),
                          [&](bool ok) { done_order.push_back(ok ? 1 : -1); });
  ASSERT_TRUE(rig.controller->in_flight());

  // Fire the second request 1 s later, squarely inside the first
  // migration (CCR takes tens of seconds): it must queue, not throw and
  // not double-trigger.
  rig.h.run_for(time::sec(1));
  EXPECT_TRUE(rig.controller->in_flight());
  rig.controller->request(rig.plan_to(rig.target_b),
                          [&](bool ok) { done_order.push_back(ok ? 2 : -2); });
  EXPECT_EQ(rig.controller->queued(), 1u);
  EXPECT_EQ(rig.controller->queue_stats().queued, 1u);

  rig.h.run_for(time::sec(360));
  EXPECT_FALSE(rig.controller->in_flight());
  EXPECT_EQ(rig.controller->queued(), 0u);
  EXPECT_EQ(rig.controller->queue_stats().dequeued, 1u);
  // Both completed, in arrival order, exactly once each.
  ASSERT_EQ(done_order.size(), 2u);
  EXPECT_EQ(done_order[0], 1);
  EXPECT_EQ(done_order[1], 2);
}

TEST(ControllerQueue, RequestBeyondQueueCapIsRejected) {
  ControllerConfig cc;
  cc.max_queued = 1;
  ControllerRig rig(StrategyKind::CCR, cc);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));

  int rejections = 0;
  rig.controller->request(rig.plan_to(rig.target_a));
  rig.h.run_for(time::sec(1));
  rig.controller->request(rig.plan_to(rig.target_b));  // queued
  // Third overlapping request: the queue is full → rejected immediately,
  // synchronously, with on_done(false).
  rig.controller->request(rig.plan_to(rig.target_b),
                          [&](bool ok) { rejections += ok ? 0 : 1; });
  EXPECT_EQ(rejections, 1);
  EXPECT_EQ(rig.controller->queue_stats().rejected, 1u);
  EXPECT_EQ(rig.controller->queued(), 1u);
}

TEST(ControllerQueue, OverlapDuringRetryBackoffIsQueuedNotDoubleTriggered) {
  // Make the first attempt abort: an init deadline far shorter than the
  // worker start-up window guarantees the restore misses it and the
  // attempt rolls back, putting the controller into its backoff window.
  ControllerConfig cc;
  cc.max_attempts = 2;
  cc.retry_backoff = time::sec(20);
  ControllerRig rig(StrategyKind::CCR, cc);
  rig.h.p().config_mut().init_deadline = time::sec(5);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));

  std::vector<int> done_order;
  rig.controller->request(rig.plan_to(rig.target_a),
                          [&](bool ok) { done_order.push_back(ok ? 1 : -1); });
  // Run until the first attempt has aborted (drain+ckpt+rebalance+deadline
  // is well under 60 s) — the controller is between attempts, but the
  // request is still in flight.
  rig.h.run_for(time::sec(60));
  ASSERT_TRUE(rig.controller->in_flight());
  ASSERT_GT(rig.controller->recovery().aborted_attempts, 0);

  rig.controller->request(rig.plan_to(rig.target_b),
                          [&](bool ok) { done_order.push_back(ok ? 2 : -2); });
  EXPECT_EQ(rig.controller->queued(), 1u);

  // Let the retries (and, if needed, the DSM fallback) run to completion,
  // then the queued request.
  rig.h.run_for(time::sec(600));
  EXPECT_FALSE(rig.controller->in_flight());
  ASSERT_EQ(done_order.size(), 2u);
  EXPECT_EQ(std::abs(done_order[0]), 1);
  EXPECT_EQ(std::abs(done_order[1]), 2);
  EXPECT_EQ(rig.controller->queue_stats().dequeued, 1u);
}

TEST(ControllerQueue, ExplicitStrategyKindOverridesBoundStrategy) {
  // Bound strategy is CCR; an explicit DSM request must run DSM (acking
  // on, no capture) and leave the controller reusable.
  ControllerRig rig(StrategyKind::CCR);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));

  bool done = false;
  rig.controller->request(rig.plan_to(rig.target_a), StrategyKind::DSM,
                          [&](bool ok) { done = ok; });
  // DSM's configure() switches user acking on for the session.
  EXPECT_TRUE(rig.h.p().user_acking());
  rig.h.run_for(time::sec(300));
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.controller->succeeded());
}

TEST(ControllerQueue, BoundRequestAfterFallbackReappliesItsSession) {
  // A CCR-bound controller whose first request falls back to DSM under a
  // KV outage leaves DSM's session behind (acking on, Wave wiring,
  // periodic waves).  The next bound-strategy request must restore CCR's
  // session before it migrates, or its Capture-mode broadcasts run on a
  // platform still wired for DSM.
  ControllerConfig cc;
  cc.max_attempts = 1;
  ControllerRig rig(StrategyKind::CCR, cc);
  chaos::ChaosPlan plan;
  plan.kv_outage(time::sec(30), time::sec(300));
  chaos::ChaosInjector injector(plan, 1);
  injector.arm(rig.h.p());
  rig.h.p().start();
  rig.h.run_for(time::sec(40));

  bool first_done = false;
  rig.controller->request(rig.plan_to(rig.target_a),
                          [&](bool) { first_done = true; });
  rig.h.run_for(time::sec(400));
  ASSERT_TRUE(first_done);
  ASSERT_TRUE(rig.controller->recovery().fell_back);
  ASSERT_TRUE(rig.h.p().user_acking());  // DSM's session is still applied

  rig.controller->request(rig.plan_to(rig.target_b));
  EXPECT_FALSE(rig.h.p().user_acking());
  EXPECT_EQ(rig.h.p().checkpoint_mode(), dsps::CheckpointMode::Capture);
  EXPECT_FALSE(rig.h.p().coordinator().periodic_running());
}

}  // namespace
}  // namespace rill::core
