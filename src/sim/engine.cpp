#include "sim/engine.hpp"

#include <cassert>
#include <utility>

namespace rill::sim {

TimerId Engine::schedule(SimDuration delay, Callback cb) {
  const SimTime when = delay <= 0 ? now_ : now_ + static_cast<SimTime>(delay);
  return schedule_at(when, std::move(cb));
}

TimerId Engine::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t index = acquire_slot();
  Slot& slot = slot_at(index);
  slot.cb = std::move(cb);
  slot.active = true;
  ++active_count_;
  heap_.push(Entry{when, seq, index, slot.gen});
  return TimerId{(static_cast<std::uint64_t>(slot.gen) << 32) | index};
}

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Engine::deactivate(Slot& slot) noexcept {
  slot.active = false;
  ++slot.gen;  // invalidates the heap entry and any outstanding TimerId
  --active_count_;
}

bool Engine::cancel(TimerId id) {
  const auto index = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= slot_count_) return false;
  Slot& slot = slot_at(index);
  if (!slot.active || slot.gen != gen) return false;
  deactivate(slot);  // heap entry goes stale and is lazily swept
  slot.cb.reset();
  free_slots_.push_back(index);
  return true;
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (!live(top)) continue;  // cancelled; lazily swept
    // Deactivate before invoking so a callback that cancels its own
    // now-dead id sees consistent state.  The callback then runs in place:
    // its slot joins the free list only after it returns, and chunks never
    // move, so work it schedules can neither overwrite nor relocate it.
    Slot& slot = slot_at(top.index);
    deactivate(slot);
    assert(top.when >= now_);
    now_ = top.when;
    ++executed_;
    slot.cb();
    slot.cb.reset();
    free_slots_.push_back(top.index);
    return true;
  }
  return false;
}

void Engine::run_until(SimTime limit) {
  while (!heap_.empty()) {
    // Peek past cancelled entries without executing.
    const Entry top = heap_.top();
    if (!live(top)) {
      heap_.pop();
      continue;
    }
    if (top.when > limit) {
      now_ = limit;
      return;
    }
    step();
  }
  if (now_ < limit) now_ = limit;
}

void Engine::run() {
  while (step()) {
  }
}

PeriodicTimer::PeriodicTimer(Engine& engine, SimDuration period,
                             Engine::Callback on_tick)
    : engine_(engine), period_(period), on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  // lint: nodiscard-ok(cancel-if-pending: false just means the tick already fired)
  static_cast<void>(engine_.cancel(pending_));
}

void PeriodicTimer::arm() {
  pending_ = engine_.schedule(period_, [this] {
    if (!running_) return;
    // Re-arm first so that a tick which calls stop() cancels cleanly.
    arm();
    on_tick_();
  });
}

}  // namespace rill::sim
