// Concrete strategy classes.  Most users go through make_strategy(); the
// concrete types are exposed for tests that poke at strategy internals.
#pragma once

#include <memory>

#include "core/strategy.hpp"

namespace rill::core {

/// Storm Migration (§2): rebalance, then an INIT wave that is re-sent only
/// on 30 s ack-timeout failures; always-on acking repairs the losses.
/// DSM uses rebalance timeout 0.  DSM-T passes Storm's user-estimated
/// timeout: the sources pause for that window before the kill, hoping
/// in-flight events drain.  Unlike DCR there is no rearguard to *verify*
/// the drain — an under-estimate still loses events, an over-estimate
/// idles the dataflow.
class DsmStrategy final : public MigrationStrategy {
 public:
  DsmStrategy(StrategyKind kind, SimDuration timeout) noexcept
      : MigrationStrategy(kind), timeout_(timeout) {}
  [[nodiscard]] SimDuration timeout() const noexcept { return timeout_; }
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  SimDuration timeout_;
};

/// DCR (§3.1, Wave wiring) and CCR (§3.2, Capture wiring): the shared
/// transactional pause → checkpoint → rebalance → restore → unpause flow.
/// The wiring comes from session_profile(kind): PREPARE/INIT sweep the
/// dataflow edges (DCR) or go out as a broadcast (CCR).  On a failed
/// checkpoint the migration aborts before anything moves.  On a failed
/// restore (init_deadline exceeded) it broadcasts ROLLBACK, re-pins every
/// failed instance onto its exact old slot and runs an unbounded recovery
/// INIT so the sources only resume once the old placement is restored —
/// the abort itself loses no user events.
class CheckpointedStrategy final : public MigrationStrategy {
 public:
  explicit CheckpointedStrategy(StrategyKind kind) noexcept
      : MigrationStrategy(kind), mode_(session_profile(kind).wiring) {}
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  /// Unpause the sources and end the attempt with `done(ok)`.
  void resume(dsps::Platform& platform, bool ok,
              const std::function<void(bool)>& done);
  void abort_and_repin(dsps::Platform& platform,
                       dsps::Placement old_placement,
                       std::vector<VmId> old_vms,
                       std::function<void(bool)> done);

  dsps::CheckpointMode mode_;
};

/// Fluid key-batched migration (Megaphone-style): no pause, no kill.
/// Shadow workers warm up on the target VMs while the old placement keeps
/// processing; keyed state then moves one key-range batch at a time through
/// the checkpoint store.  Tuples for moved ranges route to the shadow
/// slots, tuples for the one in-flight range wait in a divert buffer
/// (charged to the `migration` attribution cause).  A failed transfer
/// aborts instantly — unmoved ranges never left their old slots — and a
/// retry resumes from the ranges still unmoved.
class FgmStrategy final : public MigrationStrategy {
 public:
  FgmStrategy() noexcept : MigrationStrategy(StrategyKind::FGM) {}
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  struct FluidCtx;
  /// Move batches for one instance until AllMoved or Failed; each parked
  /// chain decrements the shared attempt counter.
  void run_chain(dsps::Platform& platform, std::shared_ptr<FluidCtx> ctx,
                 dsps::InstanceRef ref);
  void finish_attempt(dsps::Platform& platform, std::shared_ptr<FluidCtx> ctx);
};

}  // namespace rill::core
