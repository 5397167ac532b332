// Migration strategies — the paper's primary contribution.
//
// A MigrationStrategy configures the platform's reliability machinery for
// normal operation (acking scope, checkpoint wiring/periodicity) and then
// enacts a user migration request end to end:
//
//   DSM  (baseline) : rebalance immediately; acking + periodic checkpoints
//                     repair losses afterwards (§2).
//   DCR             : pause → drain via PREPARE sweep → JIT COMMIT →
//                     rebalance → INIT (1 s re-sends) → unpause (§3.1).
//   CCR             : pause → broadcast PREPARE, capture in-flight events →
//                     COMMIT sweep persists state + pending lists →
//                     rebalance → broadcast INIT, resume captured events →
//                     unpause (§3.2).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "common/time.hpp"
#include "dsps/platform.hpp"

namespace rill::core {

enum class StrategyKind : std::uint8_t {
  DSM,    ///< default Storm migration (rebalance timeout 0)
  DSM_T,  ///< Storm migration with a user-estimated rebalance timeout (§2)
  DCR,
  CCR,
  FGM,  ///< fluid key-batched migration: no pause, no kill (Megaphone-style)
};

[[nodiscard]] std::string_view to_string(StrategyKind k) noexcept;

/// Timestamps of the strategy's internal phases, for the §4 metrics.
struct PhaseTimes {
  SimTime request_at{0};
  std::optional<SimTime> checkpoint_started;
  std::optional<SimTime> checkpoint_done;
  std::optional<SimTime> rebalance_invoked;
  std::optional<SimTime> rebalance_completed;
  std::optional<SimTime> init_complete;
  std::optional<SimTime> sources_unpaused;
  std::optional<SimTime> migration_done;

  /// Transactional abort bookkeeping: the attempt was rolled back either
  /// before anything moved (checkpoint failed) or after the rebalance
  /// (restore failed → re-pinned onto the old placement).
  bool aborted{false};
  std::optional<SimTime> aborted_at;
  std::optional<SimTime> repinned_at;

  /// Abort latency (§4-style recovery metric): abort decision →
  /// sources flowing again on the old placement.
  [[nodiscard]] std::optional<double> abort_latency_sec() const {
    if (!aborted_at || !sources_unpaused) return std::nullopt;
    return time::to_sec(
        static_cast<SimDuration>(*sources_unpaused - *aborted_at));
  }

  /// Drain/Capture duration (§4 metric 2): request → rebalance invocation.
  [[nodiscard]] std::optional<double> drain_sec() const {
    if (!rebalance_invoked) return std::nullopt;
    return time::to_sec(
        static_cast<SimDuration>(*rebalance_invoked - request_at));
  }
};

/// Session knobs a strategy sets on the platform for normal operation.
struct SessionProfile {
  bool user_acking{false};  ///< ack every user event (DSM's reliability)
  dsps::CheckpointMode wiring{dsps::CheckpointMode::Wave};
  bool periodic_waves{false};  ///< periodic checkpoints (paper: every 30 s)
};

/// The one table behind MigrationStrategy::configure: DSM and DSM-T keep
/// always-on acking and periodic waves; DCR, CCR and FGM ack only control
/// events and checkpoint at migration time; only CCR uses the capture
/// (broadcast) wiring.
[[nodiscard]] SessionProfile session_profile(StrategyKind k) noexcept;

class MigrationStrategy {
 public:
  virtual ~MigrationStrategy() = default;

  [[nodiscard]] StrategyKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string_view name() const noexcept {
    return to_string(kind());
  }

  /// Apply session_profile(kind()) to the platform: acking scope,
  /// checkpoint wiring, periodic checkpointing.  Call once after deploy,
  /// before start.  Delta checkpointing always follows config().ckpt_delta.
  void configure(dsps::Platform& platform) const;

  /// Enact a migration.  `done(success)` fires when the strategy considers
  /// the migration complete (all tasks initialised and, for DCR/CCR,
  /// sources unpaused).  The plan's scheduler must outlive the migration.
  virtual void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
                       std::function<void(bool)> done) = 0;

  [[nodiscard]] const PhaseTimes& phases() const noexcept { return phases_; }

 protected:
  explicit MigrationStrategy(StrategyKind kind) noexcept : kind_(kind) {}

  /// Start a migration attempt: reset phases_, stamp the request time and
  /// record the "request" instant.
  void begin_attempt(dsps::Platform& platform);
  /// Mark the attempt aborted now and record the "abort" instant.
  void mark_aborted(dsps::Platform& platform);
  /// Control-plane instant on the controller lane (no-op when tracing is
  /// off).
  static void instant(dsps::Platform& platform, const char* name);

  PhaseTimes phases_;

 private:
  StrategyKind kind_;
};

/// Factory for the paper strategies.  DSM_T gets a default 10 s timeout;
/// use make_dsm_timeout_strategy for a specific estimate.
[[nodiscard]] std::unique_ptr<MigrationStrategy> make_strategy(StrategyKind k);

/// DSM with Storm's rebalance-timeout argument: sources pause for
/// `timeout` before the kill so in-flight events may drain.  The paper
/// (§2) notes users under-estimate (messages lost anyway) or
/// over-estimate (dataflow idles) this value — the ablation bench sweeps it.
[[nodiscard]] std::unique_ptr<MigrationStrategy> make_dsm_timeout_strategy(
    SimDuration timeout);

}  // namespace rill::core
