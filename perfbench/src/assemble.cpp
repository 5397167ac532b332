#include "assemble.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "autoscale/controller.hpp"
#include "chaos/injector.hpp"
#include "ckpt/policy.hpp"
#include "ckpt/recovery.hpp"
#include "core/controller.hpp"
#include "core/strategy.hpp"
#include "dsps/platform.hpp"
#include "metrics/collector.hpp"
#include "metrics/json.hpp"
#include "sim/engine.hpp"
#include "workloads/dags.hpp"
#include "workloads/scenario.hpp"
#include "workloads/traffic.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace time = rill::time;
using rill::SimDuration;
using rill::SimTime;

/// Forwards every callback to the collector and times on_sink_arrival.
class TimedListener final : public rill::dsps::EventListener {
 public:
  explicit TimedListener(rill::metrics::Collector& c) : c_(c) {}

  void on_source_emit(const rill::dsps::Event& ev, bool replay) override {
    c_.on_source_emit(ev, replay);
  }
  void on_emit(const rill::dsps::Event& ev) override { c_.on_emit(ev); }
  void on_sink_arrival(const rill::dsps::Event& ev, SimTime now) override {
    const Clock::time_point t0 = Clock::now();
    c_.on_sink_arrival(ev, now);
    ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  void on_lost(const rill::dsps::Event& ev, SimTime now) override {
    c_.on_lost(ev, now);
  }

  [[nodiscard]] double ns() const noexcept { return ns_; }

 private:
  rill::metrics::Collector& c_;
  double ns_{0.0};
};

/// Simulated-time slice boundaries: warm-up up to the request, a two-minute
/// migration window, then the tail.  The autoscale arm has no fixed request
/// and runs as one slice.
std::vector<std::pair<std::string, SimTime>> slices(
    const rill::workloads::ExperimentConfig& cfg) {
  const auto end = static_cast<SimTime>(cfg.run_duration);
  const auto at = static_cast<SimTime>(cfg.migrate_at);
  if (cfg.autoscale.enabled || at >= end) {
    return {{"sim.run_until.run", end}};
  }
  const SimTime window = std::min<SimTime>(end, at + time::sec(120));
  return {{"sim.run_until.warmup", at},
          {"sim.run_until.migration", window},
          {"sim.run_until.tail", end}};
}

}  // namespace

AssembledRun assemble_and_run(const rill::workloads::ExperimentConfig& config,
                              SpanLog& log, std::uint32_t experiment) {
  using namespace rill;
  using namespace rill::workloads;
  AssembledRun out;
  ScopedSpan whole(log, "assembled", experiment);

  ScopedSpan setup(log, "setup", experiment);
  sim::Engine engine;
  dsps::Platform platform(engine, config.platform);
  platform.setup_infrastructure();

  dsps::Topology topo =
      config.custom_topology.has_value()
          ? *config.custom_topology
          : build_dag(config.dag, config.platform.source_rate);
  if (!topo.validated()) topo.validate();

  const VmPlan plan = vm_plan_for(topo);
  const double expected_out =
      expected_output_rate(topo, config.platform.source_rate);

  const std::vector<VmId> default_vms = platform.cluster().provision_n(
      cluster::VmType::D2, plan.default_d2_vms, "d2");
  dsps::RoundRobinScheduler scheduler;
  platform.deploy(std::move(topo), default_vms, scheduler);

  metrics::Collector collector;
  TimedListener timed(collector);
  platform.set_listener(&timed);

  ckpt::RecoveryTracker recovery_tracker;
  platform.set_recovery_tracker(&recovery_tracker);

  auto strategy = core::make_strategy(config.strategy);
  strategy->configure(platform);
  core::MigrationController controller(platform, *strategy, config.controller);

  autoscale::AutoscaleController autoscaler(platform, controller, plan,
                                            config.autoscale);
  autoscaler.attach();
  autoscaler.set_on_first_trigger(
      [&collector](SimTime at) { collector.set_request_time(at); });

  TrafficDriver traffic(platform, config.traffic);

  chaos::ChaosInjector injector(config.chaos, config.platform.seed);
  injector.arm(platform);

  ckpt::CkptPolicy policy(platform, config.ckpt_policy);
  injector.set_failure_listener(
      [&policy](chaos::FaultKind kind, SimTime at) {
        policy.on_failure(kind, at);
      });
  recovery_tracker.set_sink([&policy](const ckpt::RecoveryRecord& rec) {
    policy.on_recovery(rec);
  });
  policy.start();

  platform.start();
  traffic.start();
  autoscaler.start();

  if (!config.autoscale.enabled) {
    engine.schedule_at_detached(
        static_cast<SimTime>(config.migrate_at),
        // lint: lifetime-ok(all captures live on this stack past engine.run_until)
        [&platform, &collector, &controller, &scheduler, &config, &out, plan] {
          out.pending_at_request = platform.engine().pending();
          collector.set_request_time(platform.engine().now());
          const std::vector<VmId> target = platform.cluster().provision_n(
              target_vm_type(config.scale), target_vm_count(plan, config.scale),
              config.scale == ScaleKind::In ? "d3" : "d1");
          dsps::MigrationPlan mplan;
          mplan.target_vms = target;
          mplan.scheduler = &scheduler;
          controller.request(std::move(mplan));
        });
  }
  setup.close();

  for (const auto& [name, limit] : slices(config)) {
    ScopedSpan slice(log, name, experiment);
    engine.run_until(limit);
  }

  ScopedSpan teardown(log, "teardown", experiment);
  autoscaler.stop();
  traffic.stop();
  policy.stop();
  platform.stop();
  teardown.close();

  ScopedSpan distil(log, "distil", experiment);
  ExperimentResult& result = out.result;
  result.dag_name = platform.topology().name();
  result.strategy = config.strategy;
  result.scale = config.scale;
  result.migration_succeeded = controller.succeeded();
  result.phases = controller.phases();
  result.rebalance = platform.rebalancer().last();
  result.recovery = controller.recovery();
  result.chaos = injector.stats();
  result.checkpoint = platform.coordinator().stats();
  result.store = platform.store().stats();
  result.events_emitted = platform.stats().events_emitted;
  result.events_lost = platform.stats().events_lost;
  for (const dsps::InstanceRef& ref : platform.worker_and_sink_instances()) {
    const dsps::Executor& ex = platform.executor(ref);
    const dsps::ExecutorStats& s = ex.stats();
    result.post_commit_arrivals += s.post_commit_arrivals;
    result.delivered += s.delivered;
    const std::uint64_t in = s.delivered + s.init_replays;
    const std::uint64_t outs = s.processed + s.lost_enqueue + s.lost_at_kill +
                               s.lost_mid_service + s.transport_overflow +
                               s.capture_handoff + ex.buffered_user_events();
    if (in != outs) ++result.accounting_violations;
  }
  for (const dsps::InstanceRef& ref : platform.worker_instances()) {
    const dsps::TaskState& st = platform.executor(ref).state();
    if (!st.counters.empty()) out.states.push_back(st);
  }

  if (config.autoscale.enabled) {
    autoscaler.slo().advance_to(static_cast<SimTime>(config.run_duration));
    autoscaler.slo().finalize();
    result.autoscale = autoscaler.stats();
    result.slo_windows = autoscaler.slo().windows().size();
    result.slo_burn_per_mille = autoscaler.slo().burn_per_mille();
  }

  const SimTime request = result.phases.request_at;
  metrics::MigrationReport rep;
  rep.dag = result.dag_name;
  rep.strategy = std::string(core::to_string(config.strategy));
  rep.scale = std::string(to_string(config.scale));
  rep.expected_output_rate = expected_out;

  auto rel_sec = [request](std::optional<SimTime> t) -> std::optional<double> {
    if (!t.has_value()) return std::nullopt;
    return time::to_sec(static_cast<SimDuration>(*t - request));
  };
  if (result.rebalance.has_value() && result.rebalance->killed_at > 0) {
    rep.restore_sec =
        rel_sec(collector.first_sink_arrival_after(result.rebalance->killed_at));
  } else {
    rep.restore_sec = rel_sec(collector.first_sink_after_request());
  }
  rep.drain_sec = result.phases.drain_sec().value_or(0.0);
  if (result.rebalance.has_value() &&
      result.rebalance->command_completed_at > 0) {
    rep.rebalance_sec = time::to_sec(static_cast<SimDuration>(
        result.rebalance->command_completed_at - result.rebalance->invoked_at));
  }
  auto rel_orig = [&](std::optional<SimTime> t) -> std::optional<double> {
    if (!t.has_value() || !collector.request_time().has_value()) {
      return rel_sec(t);
    }
    return time::to_sec(
        static_cast<SimDuration>(*t - *collector.request_time()));
  };
  rep.catchup_sec = rel_orig(collector.last_old_arrival());
  rep.recovery_sec = rel_orig(collector.last_replayed_arrival());
  rep.replayed_messages = collector.replayed_messages();
  rep.lost_events = collector.lost_user_events();

  const auto request_sec = static_cast<std::size_t>(request / 1'000'000ull);
  if (auto stab = metrics::find_stabilization(collector.output(), expected_out,
                                              request_sec)) {
    rep.stabilization_sec = static_cast<double>(*stab - request_sec);
  }
  if (platform.coordinator().first_init_received().has_value()) {
    rep.first_init_sec = rel_sec(platform.coordinator().first_init_received());
  }

  const auto run_end = static_cast<SimTime>(config.run_duration);
  const Clock::time_point tp = Clock::now();
  rep.latency_p50_ms = collector.latency().percentile_ms(0.50, 0, run_end);
  rep.latency_p95_ms = collector.latency().percentile_ms(0.95, 0, run_end);
  rep.latency_p99_ms = collector.latency().percentile_ms(0.99, 0, run_end);
  out.percentile_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - tp).count() / 3.0;

  rep.migration_attempts = result.recovery.attempts;
  rep.aborted_attempts = result.recovery.aborted_attempts;
  rep.fell_back_to_dsm = result.recovery.fell_back;
  rep.abort_latency_sec = result.recovery.first_abort_latency_sec;
  rep.faults_injected = result.chaos.faults_armed;
  rep.fault_hits = result.chaos.total_hits();
  rep.kv_retries = result.store.retries;
  rep.wave_retries = result.checkpoint.wave_retries;

  if (config.autoscale.enabled) {
    metrics::MigrationReport::AutoscaleSummary as;
    as.decisions = result.autoscale.decisions;
    as.scale_outs = result.autoscale.scale_outs;
    as.scale_ins = result.autoscale.scale_ins;
    as.fgm_chosen = result.autoscale.fgm_chosen;
    as.ccr_chosen = result.autoscale.ccr_chosen;
    as.dcr_chosen = result.autoscale.dcr_chosen;
    as.suppressed = result.autoscale.suppressed_cooldown +
                    result.autoscale.suppressed_busy;
    as.failed = result.autoscale.failed;
    as.slo_windows = result.slo_windows;
    as.slo_burn_per_mille = result.slo_burn_per_mille;
    rep.autoscale = as;
  }

  out.report_json = metrics::to_json(rep);
  result.report = std::move(rep);

  out.events = engine.executed();
  out.net = platform.network().stats();
  out.delivered = result.delivered;
  out.sink_arrivals = collector.sink_arrivals();
  out.on_sink_arrival_ns = timed.ns();
  distil.close();
  whole.close();
  return out;
}

}  // namespace perfbench
