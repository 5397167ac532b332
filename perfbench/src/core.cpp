#include "core.hpp"

#include <algorithm>
#include <cmath>

#include "workloads/dags.hpp"

namespace perfbench {

using rill::core::StrategyKind;
using rill::workloads::DagKind;
using rill::workloads::ExperimentConfig;
using rill::workloads::ScaleKind;
namespace time = rill::time;

std::uint64_t fork_seed(std::uint64_t base, std::uint64_t index) {
  SplitMix64 sm(base);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i <= index; ++i) out = sm.next();
  return out;
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

std::optional<double> nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t beyond = samples_beyond(samples.size(), q);
  const std::size_t rank = std::max<std::size_t>(1, samples.size() - beyond);
  return samples[rank - 1];
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

std::vector<std::string> failure_reasons(
    const rill::workloads::ExperimentResult& r) {
  std::vector<std::string> why;
  if (r.accounting_violations > 0) {
    why.push_back("accounting_violations=" +
                  std::to_string(r.accounting_violations));
  }
  if (r.post_commit_arrivals > 0) {
    why.push_back("post_commit_arrivals=" +
                  std::to_string(r.post_commit_arrivals));
  }
  if (!r.migration_succeeded) why.push_back("migration did not succeed");
  if (r.strategy != StrategyKind::DSM && r.report.lost_events > 0) {
    why.push_back(std::string(rill::core::to_string(r.strategy)) + " lost " +
                  std::to_string(r.report.lost_events) + " events");
  }

  const rill::metrics::MigrationReport& rep = r.report;
  auto check = [&why](const char* name, std::optional<double> v) {
    if (v.has_value() && (!std::isfinite(*v) || *v < 0.0)) {
      why.push_back(std::string("impossible ") + name + "=" +
                    std::to_string(*v));
    }
  };
  check("restore_sec", rep.restore_sec);
  check("drain_sec", rep.drain_sec);
  check("rebalance_sec", rep.rebalance_sec);
  check("catchup_sec", rep.catchup_sec);
  check("recovery_sec", rep.recovery_sec);
  check("stabilization_sec", rep.stabilization_sec);
  check("first_init_sec", rep.first_init_sec);
  check("abort_latency_sec", rep.abort_latency_sec);
  check("latency_p50_ms", rep.latency_p50_ms);
  check("latency_p95_ms", rep.latency_p95_ms);
  check("latency_p99_ms", rep.latency_p99_ms);
  return why;
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

constexpr std::string_view kNames[] = {"grid_ccr_large",
                                       "grid_dsm_delta_large", "paper_sweep"};

/// Grid autosized for 300 ev/s (≈790 worker instances), migrated early so
/// most of the run is the steady per-event data plane after the move.
ExperimentConfig grid_large(StrategyKind strategy, bool delta,
                            std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.dag = DagKind::Grid;
  cfg.strategy = strategy;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = seed;
  cfg.platform.source_rate = 300.0;
  cfg.platform.ckpt_delta = delta;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  return cfg;
}

/// The closed-loop arm of bench_autoscale and tools/ci.sh: the Keyed DAG
/// under the bench traffic (diurnal + flash crowd + Zipf keys + CPU steal),
/// 900 s.
ExperimentConfig autoscale_arm(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.dag = DagKind::Keyed;
  cfg.platform.seed = seed;
  cfg.platform.vm_steal_permille = 600;
  cfg.run_duration = time::sec(900);
  cfg.traffic.enabled = true;
  cfg.traffic.base_rate = 2.0;
  cfg.traffic.diurnal_amplitude = 0.5;
  cfg.traffic.diurnal_period_sec = 600.0;
  cfg.traffic.crowds.push_back({/*at=*/200.0, /*ramp=*/15.0, /*hold=*/120.0,
                                /*fall=*/30.0, /*multiplier=*/18.0});
  cfg.traffic.zipf_s = 0.6;
  cfg.slo.target_p99_us = 1'500'000;
  cfg.autoscale.enabled = true;
  cfg.autoscale.target_p99_us = 1'500'000;
  return cfg;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

std::string_view to_string(Workload w) noexcept {
  return kNames[static_cast<std::size_t>(w)];
}

std::vector<Experiment> experiments_for(Workload w, std::uint64_t seed,
                                        int forks) {
  std::vector<Experiment> out;
  switch (w) {
    case Workload::GridCcrLarge:
      out.push_back({"grid-ccr-in-300",
                     grid_large(StrategyKind::CCR, false, fork_seed(seed, 0)),
                     true});
      break;
    case Workload::GridDsmDeltaLarge:
      out.push_back({"grid-dsm-delta-in-300",
                     grid_large(StrategyKind::DSM, true, fork_seed(seed, 0)),
                     true});
      break;
    case Workload::PaperSweep:
      for (int f = 0; f < forks; ++f) {
        const std::uint64_t s = fork_seed(seed, static_cast<std::uint64_t>(f));
        for (const DagKind dag : rill::workloads::all_dags()) {
          for (const StrategyKind st : {StrategyKind::DSM, StrategyKind::DCR,
                                        StrategyKind::CCR, StrategyKind::FGM}) {
            for (const ScaleKind sc : {ScaleKind::In, ScaleKind::Out}) {
              ExperimentConfig cfg;  // paper defaults: 8 ev/s, 720 s, 180 s
              cfg.dag = dag;
              cfg.strategy = st;
              cfg.scale = sc;
              cfg.platform.seed = s;
              std::string label(rill::workloads::to_string(dag));
              label += "-" + std::string(rill::core::to_string(st));
              label += "-" + std::string(rill::workloads::to_string(sc));
              label += "-f" + std::to_string(f);
              out.push_back({std::move(label), cfg, true});
            }
          }
        }
        out.push_back({"Keyed-autoscale-f" + std::to_string(f),
                       autoscale_arm(s), false});
      }
      break;
  }
  return out;
}

ExperimentConfig no_migration_twin(ExperimentConfig cfg) {
  cfg.migrate_at = cfg.run_duration + time::sec(1);
  return cfg;
}

ExperimentConfig setup_only(ExperimentConfig cfg) {
  cfg.run_duration = 0;
  return cfg;
}

}  // namespace perfbench
