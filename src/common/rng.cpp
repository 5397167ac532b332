#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace rill {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kSplitMix64Gamma;
  return splitmix64_mix(x);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits → uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  // Modulo bias is irrelevant for simulation jitter; keep it simple and
  // deterministic.
  const std::uint64_t span = hi - lo + 1;
  return span == 0 ? next() : lo + next() % span;
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box–Muller without caching the second variate: reproducibility is
  // easier to reason about when each call consumes a fixed number of draws.
  double u1 = uniform01();
  if (u1 <= 1e-300) u1 = 1e-300;
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork() noexcept { return Rng(next()); }

}  // namespace rill
