#include <utility>

#include "core/strategies.hpp"

namespace rill::core {

void DsmStrategy::migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
                          std::function<void(bool)> done) {
  begin_attempt(platform);

  // No drain verification, no JIT checkpoint: rebalance right away (DSM)
  // or after the user's timeout, during which the rebalancer pauses the
  // sources and lets whatever is in flight flow (DSM-T).  Lost events are
  // replayed later by the acker, and state comes back from the last
  // periodic checkpoint.
  phases_.rebalance_invoked = platform.engine().now();
  platform.rebalancer().rebalance(
      std::move(plan), timeout_,
      [this, &platform, done = std::move(done)]() mutable {
        phases_.rebalance_completed = platform.engine().now();
        // INIT wave restores the last committed state.  resend_period 0:
        // re-send only when a wave fails after the 30 s ack timeout —
        // Storm's out-of-the-box behaviour and the cause of the ≈30 s
        // restore-time jumps the paper observes.
        platform.coordinator().run_init(
            platform.coordinator().last_committed(),
            dsps::CheckpointMode::Wave, /*resend_period=*/0,
            [this, &platform, done = std::move(done)](bool ok) {
              phases_.init_complete = platform.engine().now();
              instant(platform, "init_complete");
              phases_.migration_done = platform.engine().now();
              if (done) done(ok);
            });
      });
}

}  // namespace rill::core
