// Deterministic pseudo-random number generation.
//
// The simulator must be reproducible: the same seed must yield the same
// event trace, metrics and benchmark rows.  We use xoshiro256** which is
// fast, has a tiny state, and — unlike std::mt19937 with std::*_distribution
// — gives identical streams on every platform because we implement the
// distributions ourselves.
#pragma once

#include <array>
#include <cstdint>

namespace rill {

/// SplitMix64's golden-ratio increment (Steele, Lea & Flood).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// SplitMix64's output mix (Stafford variant 13): a bijective 64-bit
/// finaliser.  The one copy of the constants every hash and seed fork in
/// the tree uses; callers that want the full SplitMix64 step add
/// kSplitMix64Gamma to the input first.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** by Blackman & Vigna (public domain reference
/// implementation, adapted).  Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Normal variate via Box–Muller (deterministic, no cached spare).
  double normal(double mean, double stddev) noexcept;

  /// Fork a statistically-independent child stream.  Used to give each
  /// platform component its own stream so that adding draws in one
  /// component does not perturb another.
  Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace rill
