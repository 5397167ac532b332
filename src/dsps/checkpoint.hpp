// Checkpoint coordinator — the paper's (overridden) CheckpointSpout.
//
// Drives the three-phase protocol: a PREPARE wave snapshots task state, a
// COMMIT wave persists it to the key-value store, a ROLLBACK wave discards
// snapshots if PREPARE fails, and INIT waves restore state after a
// rebalance.  Waves are tracked through the acker: the coordinator
// registers a wave root, every forwarded copy is added to its causal tree,
// and the wave completes when the XOR hash clears.
//
// Wirings (paper §3):
//  * sequential — copies are injected at the entry tasks and swept through
//    the dataflow edges (DSM and DCR; also CCR's COMMIT);
//  * broadcast — one copy directly into every task instance's input queue
//    (CCR's PREPARE and INIT).
//
// INIT re-send policies: DCR/CCR re-send every `init_resend_period` (1 s)
// until a wave completes; DSM re-sends only when a wave *fails* after the
// 30 s ack timeout — producing the ≈30 s restore-time jumps in Fig 5.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "dsps/config.hpp"
#include "dsps/event.hpp"
#include "dsps/scheduler.hpp"
#include "sim/engine.hpp"

namespace rill::dsps {

class Platform;

struct CheckpointStats {
  std::uint64_t waves_started{0};
  std::uint64_t waves_committed{0};
  std::uint64_t waves_rolled_back{0};
  std::uint64_t init_attempts{0};
  std::uint64_t init_completions{0};
  std::uint64_t wave_retries{0};        ///< PREPARE/COMMIT retried in-wave
  std::uint64_t init_sessions_failed{0};  ///< run_init hit its deadline
  std::uint64_t rollbacks_broadcast{0};
  std::uint64_t init_prefetch_hits{0};  ///< restores served from the
                                        ///< cross-shard INIT prefetch
  std::uint64_t waves_deferred{0};  ///< periodic ticks skipped because a
                                    ///< worker was down or awaiting INIT
  std::uint64_t waves_aborted_on_death{0};  ///< in-flight waves aborted
                                            ///< early by a worker death

  // ---- incremental (delta) checkpointing ----
  std::uint64_t delta_blobs{0};      ///< COMMIT blobs persisted as deltas
  std::uint64_t full_blobs{0};       ///< COMMIT blobs persisted full
  std::uint64_t delta_bytes{0};      ///< serialized bytes of delta blobs
  std::uint64_t full_bytes{0};       ///< serialized bytes of full blobs
  std::uint64_t max_chain_len{0};    ///< longest delta chain persisted
  std::uint64_t gc_deleted{0};       ///< superseded blobs garbage-collected
  std::uint64_t init_chain_fetches{0};  ///< extra base-blob fetches on restore
};

class CheckpointCoordinator {
 public:
  using Done = std::function<void(bool success)>;

  explicit CheckpointCoordinator(Platform& platform);
  ~CheckpointCoordinator();

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Periodic checkpointing (DSM normal operation, paper default 30 s).
  /// The configured interval is re-read from config() on every arm, so a
  /// config_mut() edit takes effect on the next wave — it is not latched
  /// at start (see apply_interval for an immediate re-arm).
  void start_periodic();
  void stop_periodic();
  [[nodiscard]] bool periodic_running() const noexcept;

  /// Set config().checkpoint_interval and, if the periodic scheduler is
  /// running, re-arm the pending tick so the new cadence holds immediately
  /// (the adaptive policy's epoch-boundary push).
  void apply_interval(SimDuration interval);

  /// Run one full PREPARE→COMMIT wave now (JIT checkpoint).  `mode` decides
  /// the PREPARE wiring: Wave = sequential sweep, Capture = broadcast.
  /// COMMIT always sweeps sequentially.  A failed PREPARE or COMMIT wave is
  /// retried up to `config().checkpoint_wave_retries` times (same wave id,
  /// so executors re-align and re-persist idempotently); only after the
  /// retries are exhausted is a ROLLBACK broadcast and done(false) fired.
  void run_checkpoint(CheckpointMode mode, Done done);

  /// Restore task state for `checkpoint_id` after a rebalance.  INIT waves
  /// are (re)sent until one completes.  `resend_period` > 0 re-sends on a
  /// timer (DCR/CCR); 0 re-sends only on ack-timeout failure (DSM).
  /// `deadline` > 0 bounds the whole session: if no wave completes in time
  /// the session is torn down and done(false) fires (the transactional
  /// strategies then abort and re-pin the old placement).
  void run_init(std::uint64_t checkpoint_id, CheckpointMode mode,
                SimDuration resend_period, Done done,
                SimDuration deadline = 0);

  /// Broadcast a best-effort ROLLBACK for `checkpoint_id` to every worker
  /// and sink instance (abort path of a transactional migration).
  void broadcast_rollback(std::uint64_t checkpoint_id);

  [[nodiscard]] bool init_in_progress() const noexcept { return init_.active; }

  /// Wave id of the last successfully committed checkpoint (0 = none).
  [[nodiscard]] std::uint64_t last_committed() const noexcept {
    return last_committed_;
  }
  /// When that wave committed (0 = none) — now() − last_committed_at() is
  /// the checkpoint staleness a failure right now would roll back over.
  [[nodiscard]] SimTime last_committed_at() const noexcept {
    return last_committed_at_;
  }
  /// EWMA of measured PREPARE→COMMIT wave durations (0 until the first
  /// commit) — the cost term C in the adaptive policy's Young/Daly solve.
  [[nodiscard]] SimDuration wave_cost_ewma() const noexcept {
    return static_cast<SimDuration>(wave_cost_ewma_us_);
  }

  [[nodiscard]] bool checkpoint_in_progress() const noexcept {
    return checkpoint_active_;
  }

  /// A worker process died.  If a PREPARE/COMMIT wave is in flight it can
  /// no longer commit — the dead participant's snapshot (or its queued
  /// control copy) is gone, and a respawned process never saw PREPARE — so
  /// abort it now instead of burning the ack-timeout retry budget.
  void on_worker_down();
  [[nodiscard]] const CheckpointStats& stats() const noexcept { return stats_; }

  /// First time any task received an INIT of the current run_init session —
  /// the paper quotes this instant ("the first INIT ... is received by a
  /// task at 31 sec using DCR, and at 17 sec for CCR").
  [[nodiscard]] std::optional<SimTime> first_init_received() const noexcept {
    return first_init_received_;
  }
  void note_init_received(SimTime t);

  /// When the last run_init session's wave completed (all INITs acked and
  /// every restoring task re-armed) — with first_init_received() this
  /// brackets the state-fetch segment of a restore.
  [[nodiscard]] std::optional<SimTime> init_completed_at() const noexcept {
    return init_completed_at_;
  }
  /// When the wave that completed the session was (re)sent.  The tail
  /// init_completed_at() − last_init_attempt_at() is the protocol's final
  /// round trip: INIT delivery, per-task state fetch, ack — the segment the
  /// cross-shard prefetch shortens.
  [[nodiscard]] std::optional<SimTime> last_init_attempt_at() const noexcept {
    return last_init_attempt_at_;
  }

  /// Cross-shard INIT prefetch cache lookup: the blob fetched for `key`, or
  /// nullptr when no prefetch result is available (unsharded store, the
  /// pipelined MGETs still in flight, or no active session).  The pointee
  /// is nullopt when the store holds nothing under that key.
  [[nodiscard]] const std::optional<Bytes>* prefetched(
      const std::string& key) const;
  void note_prefetch_hit() noexcept { ++stats_.init_prefetch_hits; }

  /// Executor COMMIT-path reporting: one blob persisted (delta or full,
  /// `chain_len` deltas since the last full).  Feeds CheckpointStats and
  /// the ckpt.delta_bytes / ckpt.full_bytes / ckpt.chain_len instruments.
  void note_commit_blob(bool delta, std::size_t bytes, int chain_len);
  void note_gc(std::size_t blobs) noexcept {
    stats_.gc_deleted += static_cast<std::uint64_t>(blobs);
  }
  void note_chain_fetch() noexcept { ++stats_.init_chain_fetches; }

 private:
  using AckerOnDone = std::function<void(RootId)>;

  /// Emit one wave of `kind` copies; returns the wave root id.
  RootId send_wave(ControlKind kind, std::uint64_t checkpoint_id,
                   bool broadcast, AckerOnDone on_complete,
                   AckerOnDone on_fail);

  void on_periodic_tick();
  void arm_periodic();
  void send_init_attempt();
  void arm_init_resend();
  /// One PREPARE or COMMIT phase of a checkpoint wave (`phase`): a traced
  /// wave, retried on failure up to config().checkpoint_wave_retries times
  /// unless doomed, then aborted.  PREPARE success starts COMMIT; COMMIT
  /// success records the committed checkpoint and fires `done(true)`.
  void run_wave_phase(ControlKind phase, CheckpointMode mode,
                      std::uint64_t cid, int attempt,
                      std::shared_ptr<Done> done);
  void abort_wave(std::uint64_t cid, std::shared_ptr<Done> done);
  /// Close the run_init session: cancel its timers, forget every
  /// outstanding wave but the `completed` one, record the outcome and fire
  /// the session's done(ok).  The deadline path passes ok = false.
  void end_init_session(bool ok, RootId completed);
  /// Sharded stores only: fire one pipelined MGET per shard covering every
  /// restoring instance's blob, so INITs restore from the cache instead of
  /// serial per-task GETs.  Delta blobs reference base blobs; follow-up
  /// rounds MGET the unseen bases until every chain bottoms out in a full
  /// blob, and only then is the cache marked ready.
  void start_init_prefetch();
  void prefetch_round(std::uint64_t generation, std::vector<std::string> keys,
                      std::vector<InstanceRef> refs, int round);
  void finish_init_prefetch(std::size_t blobs);
  void clear_init_prefetch();

  // run_init session state.
  struct InitSession {
    std::uint64_t checkpoint_id{0};
    CheckpointMode mode{CheckpointMode::Wave};
    SimDuration resend_period{0};
    Done done;
    std::vector<RootId> outstanding;
    bool active{false};
  };

  Platform& platform_;
  /// Periodic wave scheduling: a raw timer re-armed per wave (instead of a
  /// fixed-period PeriodicTimer) so every arm re-reads the configured
  /// interval — the knob stays runtime-retunable.
  bool periodic_running_{false};
  sim::TimerId periodic_timer_{};
  std::uint64_t next_checkpoint_id_{1};
  std::uint64_t last_committed_{0};
  SimTime last_committed_at_{0};
  SimTime wave_started_at_{0};
  double wave_cost_ewma_us_{0.0};
  bool checkpoint_active_{false};
  /// Outstanding control root of the in-flight wave phase, and whether a
  /// participant died under it (on_worker_down fails the root; the phase
  /// failure handler then aborts instead of retrying).
  RootId wave_root_{0};
  bool wave_doomed_{false};
  InitSession init_;
  sim::TimerId init_resend_timer_{};
  sim::TimerId init_deadline_timer_{};
  std::optional<SimTime> first_init_received_;
  std::optional<SimTime> init_completed_at_;
  std::optional<SimTime> last_init_attempt_at_;
  /// INIT prefetch cache (sharded stores): blob key → fetched value.
  /// Only consulted while the session that filled it is active.
  std::unordered_map<std::string, std::optional<Bytes>> prefetch_;
  bool prefetch_ready_{false};
  /// Bumped per run_init so stale prefetch replies are discarded.
  std::uint64_t init_generation_{0};
  CheckpointStats stats_;
  /// Open flight-recorder spans: the whole PREPARE→COMMIT checkpoint and
  /// the run_init session (one of each at a time).
  std::uint64_t ckpt_span_{~0ull};
  std::uint64_t init_span_{~0ull};
};

}  // namespace rill::dsps
