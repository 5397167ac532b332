#include <memory>
#include <utility>

#include "core/strategies.hpp"

namespace rill::core {

void CheckpointedStrategy::migrate(dsps::Platform& platform,
                                   dsps::MigrationPlan plan,
                                   std::function<void(bool)> done) {
  begin_attempt(platform);

  // 1) Pause the sources.  Wave mode drains in-flight events behind the
  //    PREPARE rearguard; Capture mode snapshots them into pending lists.
  platform.pause_sources();
  phases_.checkpoint_started = platform.engine().now();

  // 2) JIT checkpoint (retried per-wave by the coordinator).
  platform.coordinator().run_checkpoint(
      mode_, [this, &platform, plan = std::move(plan),
              done = std::move(done)](bool ok) mutable {
        if (!ok) {
          // Checkpoint aborted after exhausting wave retries; the
          // coordinator already broadcast ROLLBACK.  Nothing has moved —
          // the old placement is intact, so just resume the sources.
          mark_aborted(platform);
          resume(platform, /*ok=*/false, done);
          return;
        }
        phases_.checkpoint_done = platform.engine().now();
        instant(platform, "checkpoint_done");

        // Transactional bookkeeping: snapshot the old placement before
        // anything moves and defer the old-VM release until the restore
        // commits, so an abort can re-pin with zero loss.
        dsps::Placement old_placement =
            platform.rebalancer().current_placement();
        std::vector<VmId> old_vms = platform.worker_vms();
        std::vector<VmId> target_vms = plan.target_vms;
        const bool release_requested = plan.release_old_vms;
        plan.release_old_vms = false;

        // 3) Rebalance with zero timeout — the dataflow is empty (Wave) or
        //    snapshotted (Capture).
        phases_.rebalance_invoked = platform.engine().now();
        platform.rebalancer().rebalance(
            std::move(plan), /*timeout=*/0,
            [this, &platform, old_placement = std::move(old_placement),
             old_vms = std::move(old_vms), target_vms = std::move(target_vms),
             release_requested, done = std::move(done)]() mutable {
              phases_.rebalance_completed = platform.engine().now();

              // 4) INIT restore with aggressive 1 s re-sends, bounded by
              //    the init deadline.
              platform.coordinator().run_init(
                  platform.coordinator().last_committed(), mode_,
                  platform.config().init_resend_period,
                  [this, &platform, old_placement = std::move(old_placement),
                   old_vms = std::move(old_vms),
                   target_vms = std::move(target_vms), release_requested,
                   done = std::move(done)](bool ok2) mutable {
                    if (!ok2) {
                      abort_and_repin(platform, std::move(old_placement),
                                      std::move(old_vms), std::move(done));
                      return;
                    }
                    phases_.init_complete = platform.engine().now();
                    instant(platform, "init_complete");
                    // Restore committed: now the vacated VMs may go.
                    if (release_requested) {
                      platform.cluster().release_vms_not_in(old_vms,
                                                            target_vms);
                    }
                    // 5) Unpause: backlogged events refill the dataflow.
                    resume(platform, /*ok=*/true, done);
                  },
                  platform.config().init_deadline);
            });
      });
}

void CheckpointedStrategy::resume(dsps::Platform& platform, bool ok,
                                  const std::function<void(bool)>& done) {
  platform.unpause_sources();
  phases_.sources_unpaused = platform.engine().now();
  if (ok) instant(platform, "unpause");
  phases_.migration_done = platform.engine().now();
  if (done) done(ok);
}

void CheckpointedStrategy::abort_and_repin(dsps::Platform& platform,
                                           dsps::Placement old_placement,
                                           std::vector<VmId> old_vms,
                                           std::function<void(bool)> done) {
  mark_aborted(platform);

  // Discard any half-restored snapshots on the target workers.
  platform.coordinator().broadcast_rollback(
      platform.coordinator().last_committed());

  // Re-pin only the placements whose restore actually failed — workers
  // still launching or still awaiting INIT.  Workers that are up and
  // initialised hold restored state on the target; re-killing them (the
  // old behaviour) threw that away and re-fetched it for nothing, and
  // under a partial store outage could push a healthy instance's second
  // restore into the same dead shard.  Their VMs stay in the worker pool
  // (the rebalancer unions them in for a scoped plan).  The old VMs were
  // kept alive for exactly this case; the failed target VMs also stay
  // provisioned so the controller can retry or fall back to DSM.
  std::vector<dsps::InstanceRef> failed;
  for (const auto& [ref, slot] : old_placement) {
    const dsps::Executor& ex = platform.executor(ref);
    if (!ex.ready() || ex.awaiting_init()) failed.push_back(ref);
  }
  auto pinned =
      std::make_shared<dsps::PinnedScheduler>(std::move(old_placement));
  dsps::MigrationPlan repin;
  repin.target_vms = std::move(old_vms);
  repin.scheduler = pinned.get();
  repin.release_old_vms = false;
  repin.instances = std::move(failed);
  platform.rebalancer().rebalance(
      std::move(repin), /*timeout=*/0,
      [this, &platform, pinned, done = std::move(done)]() mutable {
        phases_.repinned_at = platform.engine().now();
        instant(platform, "repin");
        // Unbounded recovery INIT against the same committed checkpoint:
        // once the fault lifts, the restore completes and only then do the
        // sources resume — the abort itself loses no user events.
        platform.coordinator().run_init(
            platform.coordinator().last_committed(), mode_,
            platform.config().init_resend_period,
            [this, &platform, done = std::move(done)](bool) {
              resume(platform, /*ok=*/false, done);
            });
      });
}

}  // namespace rill::core
