#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace perfbench {

namespace {

struct Ev {
  std::uint64_t when;
  std::uint64_t seq;
  std::uint32_t slot;
  bool operator>(const Ev& o) const {
    return when != o.when ? when > o.when : seq > o.seq;
  }
};

constexpr std::uint32_t kInstances = 800;
constexpr std::uint32_t kSlots = 4096;
constexpr std::uint64_t kChannels = 20'000;
constexpr int kSteps = 100'000;

}  // namespace

double time_reference(std::uint64_t salt) {
  const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  std::uint64_t x = salt * 2 + 1;
  auto rnd = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::map<std::string, std::int64_t>> states(kInstances);
  std::unordered_map<std::uint64_t, std::uint64_t> last_arrival;
  std::map<std::uint32_t, std::uint32_t> route;
  for (std::uint32_t i = 0; i < kInstances; ++i) route[i * 7] = i;
  std::vector<std::function<void()>> slots(kSlots);
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    heap.push({rnd() % 1000, seq++, i});
  }
  for (int n = 0; n < kSteps; ++n) {
    const Ev e = heap.top();
    heap.pop();
    const std::uint32_t inst = route.find((rnd() % kInstances) * 7)->second;
    states[inst]["k" + std::to_string(rnd() % 64)] += 1;
    std::uint64_t& last = last_arrival[rnd() % kChannels];
    last = std::max(last, e.when);
    std::string payload(64 + rnd() % 128, 'x');
    slots[e.slot] = [payload = std::move(payload), &sink] {
      sink += payload.size();
    };
    slots[e.slot]();
    heap.push({e.when + rnd() % 1000, seq++, e.slot});
  }
  const double s = seconds_since(t0);
  // `sink` depends on every step; folding it in keeps the loop observable.
  return s + static_cast<double>(sink == 0);
}

}  // namespace perfbench
