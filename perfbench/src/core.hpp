// The benchmark's own rules, kept apart from main.cpp so the self-test
// can pin them: seed forking, the percentile rule, the failure classifier,
// the metric-name grammar and the workload definitions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/runner.hpp"

namespace perfbench {

// ---- seeds ----------------------------------------------------------------

/// SplitMix64 (Steele, Lea & Flood): a 64-bit counter through a finalising
/// mixer.  Used only to fork per-experiment seeds from the workload seed;
/// the library itself sees nothing but the resulting configs.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// The `index`-th seed forked from `base`: the `index+1`-th SplitMix64
/// output of a stream seeded with `base`.
[[nodiscard]] std::uint64_t fork_seed(std::uint64_t base, std::uint64_t index);

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile: the ceil(q·n)-th smallest sample (1-based),
/// q in (0, 1].  Empty input gives nullopt.
[[nodiscard]] std::optional<double> nearest_rank(std::vector<double> samples,
                                                 double q);

/// Number of samples strictly beyond the nearest-rank q-th percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: of p50, p90, p99 and p99.9, the highest that has
/// at least ten samples beyond it.  nullopt when not even p50 does (n < 20).
[[nodiscard]] std::optional<double> highest_supported_percentile(std::size_t n);

// ---- output checks --------------------------------------------------------

/// Why an experiment counts as failed; empty = passed.
[[nodiscard]] std::vector<std::string> failure_reasons(
    const rill::workloads::ExperimentResult& r);

// ---- metric names ---------------------------------------------------------

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

// ---- workloads ------------------------------------------------------------

enum class Workload : std::uint8_t {
  GridCcrLarge,
  GridDsmDeltaLarge,
  PaperSweep
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view to_string(Workload w) noexcept;

struct Experiment {
  std::string label;
  rill::workloads::ExperimentConfig config;
  /// A hand-invoked migration at `migrate_at`; false for the autoscale arm,
  /// whose controller decides when to migrate.
  bool hand_invoked{true};
};

/// Number of forked seeds in one paper_sweep pass; each fork runs the 40
/// DAG × strategy × scale cells plus one autoscale arm.
inline constexpr int kSweepForks = 3;

/// The experiments of one pass of `w`.  `forks` limits paper_sweep to its
/// first `forks` seed forks (the traced run uses one).
[[nodiscard]] std::vector<Experiment> experiments_for(Workload w,
                                                      std::uint64_t seed,
                                                      int forks = kSweepForks);

/// The same experiment with its migration pushed past the end of the run:
/// the no-migration twin the core layer's cost is measured against.
[[nodiscard]] rill::workloads::ExperimentConfig no_migration_twin(
    rill::workloads::ExperimentConfig cfg);

/// The experiment with nothing simulated: build, deploy, teardown, report.
[[nodiscard]] rill::workloads::ExperimentConfig setup_only(
    rill::workloads::ExperimentConfig cfg);

}  // namespace perfbench
