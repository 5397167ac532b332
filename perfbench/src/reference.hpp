// The benchmark's speed reference: a fixed miniature discrete-event loop
// with the simulator's data-structure mix (a binary heap of timed events,
// type-erased callbacks, string-keyed ordered maps per instance, a hashed
// per-channel map and an ordered routing map).  It is the benchmark's own
// code, so no change to the library moves it; what moves it is the
// machine.  Other tenants of a shared host slow the simulator by up to
// about 2x for stretches of seconds to minutes, and this loop slows with
// it far more closely than a compute-only or a plain memory loop does.
#pragma once

#include <cstdint>

namespace perfbench {

/// Wall-clock the reference loop takes on the reference machine.  Host
/// times are reported scaled to it: measured × kReferenceSeconds ÷ the
/// reference loop's time measured next to them.
inline constexpr double kReferenceSeconds = 0.100;

/// Runs the reference loop once and returns its wall-clock seconds.  The
/// work is the same for every `salt`; it only varies the draw order.
[[nodiscard]] double time_reference(std::uint64_t salt);

}  // namespace perfbench
