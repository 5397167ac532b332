#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "core.hpp"
#include "dsps/acker.hpp"
#include "dsps/platform.hpp"
#include "kvstore/sharded_store.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "workloads/dags.hpp"
#include "workloads/scenario.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kBatches = 5;

/// Median over kBatches of (wall ns of one `batch()` call) / ops, where
/// `batch` returns the number of operations it timed.  `reset` runs
/// untimed before each batch.
double median_ns_per_op(SpanLog& log, std::uint32_t experiment,
                        const std::string& name,
                        const std::function<std::size_t()>& batch,
                        const std::function<void()>& reset = {}) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    if (reset) reset();
    ScopedSpan span(log, name, experiment);
    const Clock::time_point t0 = Clock::now();
    const std::size_t ops = batch();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    span.close();
    per_op.push_back(ns / static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return *nearest_rank(per_op, 0.5);
}

}  // namespace

LayerTimings time_layers(const rill::workloads::ExperimentConfig& cfg,
                         std::size_t engine_population,
                         const std::vector<rill::dsps::TaskState>& states,
                         SpanLog& log, std::uint32_t experiment) {
  using namespace rill;
  LayerTimings t;
  ScopedSpan whole(log, "layers", experiment);

  // A platform deployed as the experiment deploys it, never started: only
  // the calls below put events on its engine.
  sim::Engine engine;
  dsps::Platform platform(engine, cfg.platform);
  platform.setup_infrastructure();
  dsps::Topology topo =
      workloads::build_dag(cfg.dag, cfg.platform.source_rate);
  const workloads::VmPlan plan = workloads::vm_plan_for(topo);
  const std::vector<VmId> vms = platform.cluster().provision_n(
      cluster::VmType::D2, plan.default_d2_vms, "d2");
  dsps::RoundRobinScheduler scheduler;
  platform.deploy(std::move(topo), vms, scheduler);
  SplitMix64 rng(cfg.platform.seed);
  std::uint64_t sink = 0;  // keeps results observable

  {
    // Engine: a standing population the size of the workload's at its
    // migration request; each op pops one event and schedules another.
    sim::Engine e;
    const std::size_t population = std::max<std::size_t>(engine_population, 1);
    auto delay = [&rng] {
      return static_cast<SimDuration>(rng.next() % 1'000'000);
    };
    for (std::size_t i = 0; i < population; ++i) {
      e.schedule_detached(delay(), [&sink] { ++sink; });
    }
    t.schedule_step_ns = median_ns_per_op(log, experiment, "sim.Engine.step",
                                          [&] {
      constexpr std::size_t kOps = 200'000;
      for (std::size_t i = 0; i < kOps; ++i) {
        static_cast<void>(e.step());
        e.schedule_detached(delay(), [&sink] { ++sink; });
      }
      return kOps;
    });
  }

  {
    std::vector<VmId> ends = platform.worker_vms();
    ends.push_back(platform.io_vm());
    const std::size_t n = ends.size();
    t.send_ns = median_ns_per_op(
        log, experiment, "net.Network.send",
        [&] {
          constexpr std::size_t kOps = 100'000;
          for (std::size_t i = 0; i < kOps; ++i) {
            const VmId from = ends[rng.next() % n];
            const VmId to = ends[rng.next() % n];
            static_cast<void>(platform.network().send(
                from, to, 256, [&sink] { ++sink; }));
          }
          return kOps;
        },
        [&] { engine.run(); });
    engine.run();
  }

  {
    const std::vector<dsps::InstanceRef> refs =
        platform.worker_and_sink_instances();
    t.executor_lookup_ns = median_ns_per_op(
        log, experiment, "dsps.Platform.executor", [&] {
          const std::size_t rounds = std::max<std::size_t>(
              1, 200'000 / std::max<std::size_t>(refs.size(), 1));
          for (std::size_t r = 0; r < rounds; ++r) {
            for (const dsps::InstanceRef& ref : refs) {
              sink += platform.executor(ref).queue_depth();
            }
          }
          return rounds * refs.size();
        });
  }

  {
    // Task state as the workload left it; a stateless DAG gets one
    // synthetic counter map so the timing stays defined.
    std::vector<dsps::TaskState> base = states;
    if (base.empty()) {
      dsps::TaskState s;
      for (int k = 0; k < 64; ++k) s["k" + std::to_string(k)] = k;
      s.clear_dirty();
      base.push_back(std::move(s));
    }
    std::vector<std::vector<std::string>> keys;
    for (const dsps::TaskState& s : base) {
      keys.emplace_back();
      for (const auto& [k, v] : s.counters) keys.back().push_back(k);
    }
    std::vector<dsps::TaskState> work;
    t.state_update_ns = median_ns_per_op(
        log, experiment, "dsps.TaskState.update",
        [&] {
          std::size_t ops = 0;
          while (ops < 200'000) {
            for (std::size_t i = 0; i < work.size(); ++i) {
              for (const std::string& k : keys[i]) {
                work[i][k] += 1;
                ++ops;
              }
            }
          }
          return ops;
        },
        [&] { work = base; });

    t.blob_serde_ns = median_ns_per_op(
        log, experiment, "dsps.CheckpointBlob.serde", [&] {
          std::size_t ops = 0;
          while (ops < 2'000) {
            for (const dsps::TaskState& s : base) {
              dsps::CheckpointBlob blob;
              blob.checkpoint_id = ops + 1;
              blob.state = s;
              const Bytes raw = blob.serialize();
              const dsps::CheckpointBlob back =
                  dsps::CheckpointBlob::deserialize(raw);
              sink += back.state.counters.size();
              ++ops;
            }
          }
          return ops;
        });
  }

  {
    dsps::AckerService& acker = platform.acker();
    RootId next_root = 1;
    t.add_ack_ns = median_ns_per_op(
        log, experiment, "dsps.AckerService.add_ack", [&] {
          constexpr std::size_t kRoots = 20'000;
          constexpr std::uint64_t kChildren = 4;
          for (std::size_t i = 0; i < kRoots; ++i) {
            const RootId root = next_root++ << 8;
            acker.register_root(root, [&sink](RootId) { ++sink; },
                                [](RootId) {});
            for (std::uint64_t c = 1; c <= kChildren; ++c) {
              acker.add(root, root + c);
            }
            for (std::uint64_t c = 1; c <= kChildren; ++c) {
              acker.ack(root, root + c);
            }
            acker.ack(root, root);
          }
          return kRoots * (2 * kChildren + 1);
        });
  }

  {
    dsps::CheckpointBlob blob;
    blob.checkpoint_id = 1;
    if (!states.empty()) blob.state = states.front();
    const Bytes value = blob.serialize();
    kvstore::ShardedStore& store = platform.store();
    std::uint64_t round = 0;
    t.put_get_ns = median_ns_per_op(
        log, experiment, "kvstore.ShardedStore.put_get", [&] {
          constexpr std::size_t kOps = 2'000;
          ++round;
          auto key = [round](std::size_t i) {
            return "bench/" + std::to_string(round) + "/" + std::to_string(i);
          };
          for (std::size_t i = 0; i < kOps; ++i) {
            store.put(platform.io_vm(), key(i), value,
                      [&sink](bool ok) { sink += ok ? 1 : 0; });
          }
          engine.run();
          for (std::size_t i = 0; i < kOps; ++i) {
            store.get(platform.io_vm(), key(i),
                      [&sink](bool ok, std::optional<Bytes> v) {
                        sink += ok && v.has_value() ? v->size() : 0;
                      });
          }
          engine.run();
          return kOps;
        });
  }

  whole.close();
  t.checksum = sink;
  return t;
}

}  // namespace perfbench
