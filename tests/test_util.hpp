// Shared helpers for the Rill test suite.
#pragma once

#include <memory>

#include "core/strategy.hpp"
#include "dsps/platform.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "workloads/dags.hpp"
#include "workloads/runner.hpp"
#include "workloads/scenario.hpp"

namespace rill::testutil {

/// A tiny src→A→B→sink chain for unit tests.
inline dsps::Topology mini_chain(double rate = 8.0) {
  dsps::Topology t("mini");
  const TaskId src = t.add_source("src");
  const TaskId a = t.add_worker("A");
  const TaskId b = t.add_worker("B");
  const TaskId sink = t.add_sink("sink");
  t.add_edge(src, a);
  t.add_edge(a, b);
  t.add_edge(b, sink);
  t.validate();
  t.autosize_parallelism(rate);
  return t;
}

/// src → A → {B, C} → D → sink, with D seeing two upstream channels — used
/// for barrier-alignment tests.
inline dsps::Topology mini_diamond(double rate = 8.0) {
  dsps::Topology t("mini-diamond");
  const TaskId src = t.add_source("src");
  const TaskId a = t.add_worker("A");
  const TaskId b = t.add_worker("B");
  const TaskId c = t.add_worker("C");
  const TaskId d = t.add_worker("D");
  const TaskId sink = t.add_sink("sink");
  t.add_edge(src, a);
  t.add_edge(a, b);
  t.add_edge(a, c);
  t.add_edge(b, d);
  t.add_edge(c, d);
  t.add_edge(d, sink);
  t.validate();
  t.autosize_parallelism(rate);
  return t;
}

/// src → parse → count(keyed) → sink with a large, cold keyspace: each
/// event touches one "key/<k>" counter, so between waves only the keys
/// delivered in that window are dirty and deltas stay small.
inline dsps::Topology cold_keyed_chain() {
  dsps::Topology t("cold-keyed");
  const TaskId src = t.add_source("src");
  const TaskId parse = t.add_worker("parse");
  dsps::TaskDef count;
  count.name = "count";
  count.keyed_state = true;
  const TaskId cnt = t.add_task(std::move(count));
  const TaskId sink = t.add_sink("sink");
  t.add_edge(src, parse);
  t.add_edge(parse, cnt, dsps::Grouping::Fields);
  t.add_edge(cnt, sink);
  t.validate();
  return t;
}

/// An engine + platform + deployed topology, ready to start.  Keeps the
/// scheduler and collector alive for the platform's lifetime.
struct Harness {
  sim::Engine engine;
  dsps::PlatformConfig config;
  std::unique_ptr<dsps::Platform> platform;
  dsps::RoundRobinScheduler scheduler;
  metrics::Collector collector;
  std::vector<VmId> worker_vms;

  explicit Harness(dsps::Topology topo, dsps::PlatformConfig cfg = {},
                   int worker_vm_count = 0,
                   cluster::VmType vm_type = cluster::VmType::D2) {
    config = cfg;
    platform = std::make_unique<dsps::Platform>(engine, config);
    platform->setup_infrastructure();
    const int slots = topo.worker_instances();
    const int cores = cluster::cores(vm_type);
    const int n = worker_vm_count > 0 ? worker_vm_count
                                      : (slots + cores - 1) / cores;
    worker_vms = platform->cluster().provision_n(vm_type, n, "w");
    platform->deploy(std::move(topo), worker_vms, scheduler);
    platform->set_listener(&collector);
  }

  dsps::Platform& p() { return *platform; }

  void run_for(SimDuration d) { engine.run_until(engine.now() + d); }
};

/// Kill worker instance `idx` (topology order) in place, vacating its slot
/// first — the way a crashed worker process disappears, as opposed to the
/// rebalancer's coordinated kill.
inline void kill_worker(dsps::Platform& p, int idx = 0) {
  dsps::Executor& ex =
      p.executor(p.worker_instances()[static_cast<std::size_t>(idx)]);
  p.cluster().vacate(ex.slot());
  ex.kill();
}

/// Run a short experiment (120 s, migrate at 40 s) for fast tests.
inline workloads::ExperimentResult quick_experiment(
    workloads::DagKind dag, core::StrategyKind strategy,
    workloads::ScaleKind scale, std::uint64_t seed = 42,
    SimDuration run = time::sec(420), SimDuration migrate_at = time::sec(60)) {
  workloads::ExperimentConfig cfg;
  cfg.dag = dag;
  cfg.strategy = strategy;
  cfg.scale = scale;
  cfg.platform.seed = seed;
  cfg.run_duration = run;
  cfg.migrate_at = migrate_at;
  return workloads::run_experiment(cfg);
}

/// quick_experiment with the flight recorder attached (and optional chaos).
inline workloads::ExperimentResult traced_experiment(
    workloads::DagKind dag, core::StrategyKind strategy,
    workloads::ScaleKind scale, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics = nullptr, std::uint64_t seed = 42,
    chaos::ChaosPlan chaos = {}) {
  workloads::ExperimentConfig cfg;
  cfg.dag = dag;
  cfg.strategy = strategy;
  cfg.scale = scale;
  cfg.platform.seed = seed;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  cfg.chaos = std::move(chaos);
  return workloads::run_experiment(cfg);
}

}  // namespace rill::testutil
