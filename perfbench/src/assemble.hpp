// The traced run's own copy of workloads::run_experiment, assembled from
// the public Engine/Platform API so the benchmark can read the counters
// run_experiment does not return (Engine::executed(), Network::stats(),
// acker and platform stats, live task state) and time run_until in
// simulated slices.  Its MigrationReport JSON must be byte-identical to
// run_experiment's for the same config; main.cpp checks that on every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsps/state.hpp"
#include "net/network.hpp"
#include "spans.hpp"
#include "workloads/runner.hpp"

namespace perfbench {

struct AssembledRun {
  /// Only the fields the failure classifier and the report read are set.
  rill::workloads::ExperimentResult result;
  std::string report_json;
  double wall_s{0.0};  ///< set by the caller, destructors included

  std::uint64_t events{0};              ///< Engine::executed()
  std::size_t pending_at_request{0};    ///< Engine::pending() at migrate_at
  rill::net::NetworkStats net;
  std::uint64_t delivered{0};           ///< user events entering executors
  std::uint64_t sink_arrivals{0};
  double on_sink_arrival_ns{0.0};       ///< summed over every call
  double percentile_ns{0.0};            ///< one LatencySeries::percentile_ms
  /// Worker task state at the end of the run (input to the state benches).
  std::vector<rill::dsps::TaskState> states;
};

/// Runs `cfg` as run_experiment would, recording spans into `log` under
/// experiment id `experiment`.
[[nodiscard]] AssembledRun assemble_and_run(
    const rill::workloads::ExperimentConfig& cfg, SpanLog& log,
    std::uint32_t experiment);

}  // namespace perfbench
