// Per-layer timings for the traced run: each one times calls into a single
// module's public functions on a platform deployed exactly as the workload
// deploys it, fed with inputs taken from the workload's own run (engine
// population, task state).  Each is the median of five batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsps/state.hpp"
#include "spans.hpp"
#include "workloads/runner.hpp"

namespace perfbench {

struct LayerTimings {
  double schedule_step_ns{0.0};    ///< sim::Engine schedule + step
  double send_ns{0.0};             ///< net::Network::send
  double executor_lookup_ns{0.0};  ///< dsps::Platform::executor
  double state_update_ns{0.0};     ///< dsps::TaskState::operator[]
  double blob_serde_ns{0.0};       ///< CheckpointBlob serialize + deserialize
  double add_ack_ns{0.0};          ///< dsps::AckerService add or ack
  double put_get_ns{0.0};          ///< kvstore::ShardedStore put + get
  /// Folds every timed call's result, so none can be optimised away.
  std::uint64_t checksum{0};
};

[[nodiscard]] LayerTimings time_layers(
    const rill::workloads::ExperimentConfig& cfg,
    std::size_t engine_population,
    const std::vector<rill::dsps::TaskState>& states, SpanLog& log,
    std::uint32_t experiment);

}  // namespace perfbench
