#include "dsps/rebalance.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "ckpt/recovery.hpp"
#include "dsps/platform.hpp"
#include "obs/trace.hpp"

namespace rill::dsps {

namespace {

/// The plan's task-logic upgrades for `ref`, applied as the instance lands
/// on its new slot.
void apply_logic_updates(const MigrationPlan& plan, InstanceRef ref,
                         Executor& ex) {
  for (const auto& [task, version] : plan.logic_updates) {
    if (task == ref.task) ex.set_logic_version(version);
  }
}

}  // namespace

Rebalancer::Rebalancer(Platform& platform) : platform_(platform) {}

Placement Rebalancer::current_placement() const {
  Placement out;
  for (const InstanceRef& ref : platform_.worker_instances()) {
    out.emplace_back(ref, platform_.executor(ref).slot());
  }
  return out;
}

void Rebalancer::begin_command(const MigrationPlan& plan, const char* span,
                               std::optional<SimDuration> timeout) {
  if (in_progress_) {
    throw std::logic_error("rebalance already in progress");
  }
  if (plan.scheduler == nullptr) {
    throw std::logic_error("migration plan has no scheduler");
  }
  in_progress_ = true;

  last_ = RebalanceRecord{};
  last_->invoked_at = platform_.engine().now();

  trace_span_ = obs::kNoSpan;
  if (auto* tr = platform_.tracer()) {
    std::vector<obs::Arg> args{obs::arg(
        "target_vms", static_cast<std::uint64_t>(plan.target_vms.size()))};
    if (timeout.has_value()) {
      args.push_back(obs::arg("timeout_sec", time::to_sec(*timeout)));
    }
    trace_span_ =
        tr->begin(obs::kTrackRebalancer, "rebalance", span, std::move(args));
  }
}

void Rebalancer::end_command(const char* key, int value) {
  in_progress_ = false;
  if (auto* tr = platform_.tracer()) {
    tr->end(trace_span_, {obs::arg(key, value)});
  }
}

void Rebalancer::launch_workers(
    const Placement& launching,
    std::function<void(Executor&, InstanceRef, bool)> on_up) {
  const PlatformConfig& cfg = platform_.config();
  // Each worker becomes ready after its own start-up delay plus a
  // contention term per worker launched onto the same VM.
  std::unordered_map<std::uint32_t, int> per_vm;
  for (const auto& [ref, slot] : launching) {
    ++per_vm[platform_.cluster().vm_of(slot).value];
  }
  for (const auto& [ref, slot] : launching) {
    const int colocated = per_vm[platform_.cluster().vm_of(slot).value];
    double startup =
        platform_.rng_rebalance().uniform(cfg.worker_startup_min_sec,
                                          cfg.worker_startup_max_sec) +
        cfg.worker_startup_per_colocated_sec * static_cast<double>(colocated);
    if (platform_.rng_rebalance().uniform01() < cfg.worker_slow_start_prob) {
      startup += platform_.rng_rebalance().uniform(
          cfg.worker_slow_start_min_sec, cfg.worker_slow_start_max_sec);
    }
    Executor& ex = platform_.executor(ref);
    const std::uint64_t epoch = ex.epoch();
    const InstanceRef r = ref;
    platform_.engine().schedule_detached(
        // lint: lifetime-ok(ex is a platform-owned Executor; the epoch check marks stale fires)
        time::sec_f(startup), [&ex, r, epoch, on_up] {
          on_up(ex, r, ex.epoch() == epoch);
        });
  }
}

void Rebalancer::rebalance(const MigrationPlan& plan, SimDuration timeout,
                           std::function<void()> on_command_complete) {
  begin_command(plan, "rebalance", timeout);

  if (timeout > 0) {
    // Storm's timeout variant: sources pause so in-flight events may flow
    // through before the kill; they resume when the command completes.
    platform_.pause_sources();
    platform_.engine().schedule_detached(timeout, [this, plan,
                                          done = std::move(on_command_complete)]() mutable {
      kill_and_redeploy(plan, [this, done = std::move(done)] {
        platform_.unpause_sources();
        if (done) done();
      });
    });
    return;
  }
  kill_and_redeploy(plan, std::move(on_command_complete));
}

void Rebalancer::kill_and_redeploy(const MigrationPlan& plan,
                                   std::function<void()> on_command_complete) {
  const PlatformConfig& cfg = platform_.config();

  // Command latency, sampled once per invocation (paper: ≈7.26 s mean,
  // near-constant across DAGs and strategies).
  const double command_sec =
      std::max(2.0, platform_.rng_rebalance().normal(cfg.rebalance_mean_sec,
                                                     cfg.rebalance_stddev_sec));

  platform_.engine().schedule_detached(cfg.kill_delay, [this, plan, command_sec,
                                               done = std::move(on_command_complete)]() mutable {
    last_->killed_at = platform_.engine().now();

    // Kill every migrating worker instance: queues, in-memory state and
    // CCR capture lists die with the worker.  A scoped plan (abort re-pin
    // of only the failed placements) names its subset; everything else
    // keeps its slot.
    const std::vector<InstanceRef> migrating =
        plan.instances.has_value() ? *plan.instances
                                   : platform_.worker_instances();
    last_->instances_migrated = static_cast<int>(migrating.size());
    const std::vector<VmId> old_vms = platform_.worker_vms();

    std::uint64_t lost = 0;
    // Scoped plans preserve each victim's delivered-but-unprocessed events
    // across the kill: the untouched upstreams keep (or already kept)
    // emitting into these instances and will never regenerate those
    // deliveries, unlike a full re-pin where every instance re-replays
    // from the committed checkpoint.
    std::vector<std::pair<InstanceRef, std::vector<Event>>> preserved;
    for (const InstanceRef& ref : migrating) {
      Executor& ex = platform_.executor(ref);
      if (ex.life() == LifeState::Dead) continue;  // already crashed (chaos)
      if (plan.instances.has_value()) {
        std::vector<Event> held = ex.drain_unprocessed_for_requeue();
        if (!held.empty()) preserved.emplace_back(ref, std::move(held));
      }
      const std::uint64_t before = ex.stats().lost_at_kill;
      platform_.cluster().vacate(ex.slot());
      ex.kill();
      lost += ex.stats().lost_at_kill - before;
    }
    last_->events_lost_in_queues = lost;
    if (auto* tr = platform_.tracer()) {
      tr->instant(obs::kTrackRebalancer, "rebalance", "kill",
                  {obs::arg("instances", last_->instances_migrated),
                   obs::arg("lost_in_queues", lost)});
    }
    if (auto* rec = platform_.recovery()) {
      // The coordinated kill opens the recovery window; the INIT session
      // the strategy runs afterwards closes it.
      const SimTime now = platform_.engine().now();
      const SimTime committed_at =
          platform_.coordinator().last_committed_at();
      rec->on_failure(now, last_->instances_migrated,
                      static_cast<SimDuration>(now - committed_at),
                      "rebalance");
    }

    const SimDuration remaining =
        time::sec_f(command_sec) - platform_.config().kill_delay;
    platform_.engine().schedule_detached(
        std::max<SimDuration>(remaining, 0),
        [this, plan, migrating, old_vms, preserved = std::move(preserved),
         done = std::move(done)]() mutable {
          // Place the migrating instances on the target VMs and rewire.
          const std::vector<SlotId> slots =
              platform_.cluster().vacant_slots_on(plan.target_vms);
          const Placement placement =
              plan.scheduler->place(migrating, slots, platform_.cluster());
          for (const auto& [ref, slot] : placement) {
            Executor& ex = platform_.executor(ref);
            ex.respawn(slot);
            platform_.cluster().occupy(slot, ex.id());
            apply_logic_updates(plan, ref, ex);
          }
          // Hand preserved deliveries back to their (scoped-plan) owners;
          // they drain once the worker is up and its state is restored.
          for (auto& [ref, events] : preserved) {
            platform_.executor(ref).requeue(std::move(events));
          }
          // The new worker pool: the plan's target VMs, plus — for a scoped
          // plan — any old VM still hosting an instance the plan left alone.
          std::vector<VmId> pool = plan.target_vms;
          if (plan.instances.has_value()) {
            std::vector<VmId> hosting;
            for (const InstanceRef& ref : platform_.worker_instances()) {
              hosting.push_back(platform_.vm_of_instance(ref));
            }
            for (VmId v : old_vms) {
              if (std::ranges::find(pool, v) == pool.end() &&
                  std::ranges::find(hosting, v) != hosting.end()) {
                pool.push_back(v);
              }
            }
          }
          platform_.worker_vms_ = pool;
          if (plan.release_old_vms) {
            platform_.cluster().release_vms_not_in(old_vms, pool);
          }

          Placement launching;
          for (const InstanceRef& ref : migrating) {
            launching.emplace_back(ref, platform_.executor(ref).slot());
          }
          launch_workers(launching, [this](Executor& ex, InstanceRef ref,
                                           bool current) {
            // Stale once the worker is re-killed (abort re-pin, chaos
            // crash): the next incarnation arms its own timer.
            if (!current) return;
            ex.set_ready(
                /*awaiting_init=*/platform_.topology().task(ref.task).stateful);
          });

          last_->command_completed_at = platform_.engine().now();
          end_command("instances", last_->instances_migrated);
          if (done) done();
        });
  });
}

void Rebalancer::prepare_shadows(
    const MigrationPlan& plan, std::function<void(InstanceRef)> on_shadow_ready) {
  begin_command(plan, "fluid_rebalance", std::nullopt);

  const PlatformConfig& cfg = platform_.config();
  // Instances still carrying fluid state from an aborted attempt resume
  // with their existing shadow; only the rest get fresh shadow slots.
  std::vector<InstanceRef> fresh;
  std::vector<InstanceRef> resumed;
  for (const InstanceRef& ref : platform_.worker_instances()) {
    if (platform_.executor(ref).fgm_active()) {
      resumed.push_back(ref);
    } else {
      fresh.push_back(ref);
    }
  }
  last_->instances_migrated = static_cast<int>(fresh.size() + resumed.size());

  // Same draw order as a kill-based rebalance: command latency first, then
  // one start-up sample per launching worker.
  const double command_sec =
      std::max(2.0, platform_.rng_rebalance().normal(cfg.rebalance_mean_sec,
                                                     cfg.rebalance_stddev_sec));

  const std::vector<SlotId> slots =
      platform_.cluster().vacant_slots_on(plan.target_vms);
  const Placement placement =
      plan.scheduler->place(fresh, slots, platform_.cluster());
  for (const auto& [ref, slot] : placement) {
    Executor& ex = platform_.executor(ref);
    platform_.cluster().occupy(slot, ex.id());
    ex.fgm_begin(slot, cfg.fgm_batch_keys);
  }
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackRebalancer, "rebalance", "shadows_placed",
                {obs::arg("fresh", static_cast<std::uint64_t>(fresh.size())),
                 obs::arg("resumed",
                          static_cast<std::uint64_t>(resumed.size()))});
  }

  platform_.engine().schedule_detached(
      time::sec_f(command_sec),
      [this, placement, resumed, ready = std::move(on_shadow_ready)] {
        last_->command_completed_at = platform_.engine().now();

        // Shadow workers launch with the same start-up model as respawned
        // workers, including per-VM co-location contention among the
        // shadows themselves.
        launch_workers(placement, [ready](Executor& ex, InstanceRef ref,
                                          bool current) {
          // If the worker was killed meanwhile its fluid state is gone;
          // fire anyway — the first batch move then reports Failed and the
          // strategy aborts cleanly instead of waiting on a chain that
          // never starts.
          if (current) ex.fgm_shadow_up();
          if (ready) ready(ref);
        });
        // Resumed instances: their shadow may already be up (ready now) or
        // still starting under the previous attempt's timer — poll on the
        // control-plane cadence until it is.
        for (const InstanceRef& ref : resumed) {
          wait_shadow_ready(ref, platform_.executor(ref).epoch(), ready);
        }
      });
}

void Rebalancer::wait_shadow_ready(InstanceRef ref, std::uint64_t epoch,
                                   std::function<void(InstanceRef)> ready) {
  Executor& ex = platform_.executor(ref);
  if (ex.epoch() != epoch || ex.fgm_shadow_is_ready() || !ex.fgm_active()) {
    if (ready) ready(ref);
    return;
  }
  platform_.engine().schedule_detached(
      platform_.config().init_resend_period,
      [this, ref, epoch, ready = std::move(ready)] {
        wait_shadow_ready(ref, epoch, ready);
      });
}

void Rebalancer::finalize_fluid(const MigrationPlan& plan) {
  const std::vector<VmId> old_vms = platform_.worker_vms();
  int swapped = 0;
  for (const InstanceRef& ref : platform_.worker_instances()) {
    Executor& ex = platform_.executor(ref);
    if (!ex.fgm_active()) continue;
    platform_.cluster().vacate(ex.slot());
    ex.fgm_finalize();
    apply_logic_updates(plan, ref, ex);
    ++swapped;
  }
  platform_.worker_vms_ = plan.target_vms;
  if (plan.release_old_vms) {
    platform_.cluster().release_vms_not_in(old_vms, plan.target_vms);
  }
  end_command("instances", swapped);
}

void Rebalancer::abort_fluid() { end_command("aborted", 1); }

}  // namespace rill::dsps
