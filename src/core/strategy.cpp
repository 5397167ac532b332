#include "core/strategy.hpp"

#include <memory>

#include "core/strategies.hpp"
#include "obs/trace.hpp"

namespace rill::core {

std::string_view to_string(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::DSM: return "DSM";
    case StrategyKind::DSM_T: return "DSM-T";
    case StrategyKind::DCR: return "DCR";
    case StrategyKind::CCR: return "CCR";
    case StrategyKind::FGM: return "FGM";
  }
  return "?";
}

SessionProfile session_profile(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::DSM:
    case StrategyKind::DSM_T:
      // Reliability is always-on: ack every user event, checkpoint
      // periodically into the store.
      return {true, dsps::CheckpointMode::Wave, true};
    case StrategyKind::DCR:
    case StrategyKind::FGM:
      // Reliability only for checkpoint events: a just-in-time wave (DCR)
      // or per-key-batch moves (FGM) run at migration time instead.
      return {false, dsps::CheckpointMode::Wave, false};
    case StrategyKind::CCR:
      // Like DCR, but the broadcast wiring and the capture flag are active.
      return {false, dsps::CheckpointMode::Capture, false};
  }
  return {};
}

std::unique_ptr<MigrationStrategy> make_strategy(StrategyKind k) {
  switch (k) {
    case StrategyKind::DSM: return std::make_unique<DsmStrategy>(k, 0);
    case StrategyKind::DSM_T: return make_dsm_timeout_strategy(time::sec(10));
    case StrategyKind::DCR:
    case StrategyKind::CCR: return std::make_unique<CheckpointedStrategy>(k);
    case StrategyKind::FGM: return std::make_unique<FgmStrategy>();
  }
  return nullptr;
}

std::unique_ptr<MigrationStrategy> make_dsm_timeout_strategy(
    SimDuration timeout) {
  return std::make_unique<DsmStrategy>(StrategyKind::DSM_T, timeout);
}

void MigrationStrategy::configure(dsps::Platform& platform) const {
  const SessionProfile p = session_profile(kind_);
  platform.set_user_acking(p.user_acking);
  platform.set_checkpoint_mode(p.wiring);
  if (p.periodic_waves) {
    platform.coordinator().start_periodic();
  } else {
    platform.coordinator().stop_periodic();
  }
}

void MigrationStrategy::begin_attempt(dsps::Platform& platform) {
  phases_ = PhaseTimes{};
  phases_.request_at = platform.engine().now();
  instant(platform, "request");
}

void MigrationStrategy::mark_aborted(dsps::Platform& platform) {
  phases_.aborted = true;
  phases_.aborted_at = platform.engine().now();
  instant(platform, "abort");
}

void MigrationStrategy::instant(dsps::Platform& platform, const char* name) {
  if (auto* tr = platform.tracer()) {
    tr->instant(obs::kTrackController, "strategy", name);
  }
}

}  // namespace rill::core
