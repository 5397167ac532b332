#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace rill::sim {
namespace {

/// Counts live instances and destructor runs of a capture.
struct Tracked {
  int* live;
  int* destroyed;
  explicit Tracked(int* l, int* d) : live(l), destroyed(d) { ++*live; }
  Tracked(const Tracked& o) : live(o.live), destroyed(o.destroyed) { ++*live; }
  Tracked(Tracked&& o) noexcept : live(o.live), destroyed(o.destroyed) {
    ++*live;
  }
  ~Tracked() {
    --*live;
    ++*destroyed;
  }
};

TEST(Callback, SmallCaptureIsStoredInline) {
  int hits = 0;
  int* p = &hits;
  std::array<std::uint64_t, 10> payload{};  // 80 bytes + the pointer = 88
  Callback cb([p, payload] { *p += static_cast<int>(payload.size()); });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.on_heap());
  cb();
  EXPECT_EQ(hits, 10);
}

TEST(Callback, LargeCaptureFallsBackToTheHeap) {
  int hits = 0;
  int* p = &hits;
  std::array<std::uint64_t, 11> payload{};  // one word over the inline size
  Callback cb([p, payload] { *p += static_cast<int>(payload.size()); });
  EXPECT_TRUE(cb.on_heap());
  Callback moved(std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.on_heap());
  moved();
  EXPECT_EQ(hits, 11);
}

TEST(Callback, IsMoveOnlyAndAcceptsMoveOnlyCaptures) {
  static_assert(!std::is_copy_constructible_v<Callback>);
  static_assert(!std::is_copy_assignable_v<Callback>);
  static_assert(std::is_nothrow_move_constructible_v<Callback>);
  auto owned = std::make_unique<int>(41);
  Callback cb([v = std::move(owned)] { ++*v; });
  Callback other;
  EXPECT_FALSE(static_cast<bool>(other));
  other = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  other();
}

TEST(Callback, DestructorRunsExactlyOnceInlineAndOnHeap) {
  for (const bool big : {false, true}) {
    int live = 0;
    int destroyed = 0;
    {
      Tracked t(&live, &destroyed);
      std::array<std::uint64_t, 12> pad{};
      Callback cb = big ? Callback([t, pad] { static_cast<void>(pad); })
                        : Callback([t] {});
      EXPECT_EQ(cb.on_heap(), big);
      Callback a(std::move(cb));
      Callback b;
      b = std::move(a);
      b();
      EXPECT_EQ(live, 2);  // `t` plus the one copy the callback holds
      destroyed = 0;
    }
    // Leaving scope destroys `t` and the held copy — each exactly once,
    // no matter how many times the callback itself was moved.
    EXPECT_EQ(live, 0);
    EXPECT_EQ(destroyed, 2);
  }
}

TEST(Callback, ResetAndReassignDestroyTheOldCapture) {
  int live = 0;
  int destroyed = 0;
  Callback cb([t = Tracked(&live, &destroyed)] {});
  EXPECT_EQ(live, 1);
  cb = [] {};
  EXPECT_EQ(live, 0);
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(Callback, FiringCallbackSchedulesIntoReusedSlots) {
  // Each firing callback cancels a pending timer (freeing its slot) and
  // schedules two more — which lands them in recycled slots — and only
  // then reads its own inline capture.  A slot reused while its callback
  // runs would clobber that capture mid-call.
  struct Ctx {
    Engine e;
    std::vector<std::uint64_t> seen;
    std::vector<TimerId> victims;
  } ctx;
  int live = 0;
  int destroyed = 0;
  for (int i = 0; i < 8; ++i) {
    ctx.victims.push_back(ctx.e.schedule(time::sec(100), [] {}));
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    std::array<std::uint64_t, 7> tag{};
    tag.fill(i);
    auto fire = [c = &ctx, tag, t = Tracked(&live, &destroyed)] {
      EXPECT_TRUE(c->e.cancel(c->victims.back()));
      c->victims.pop_back();
      for (int k = 0; k < 2; ++k) c->e.schedule_detached(time::ms(1), [] {});
      for (const std::uint64_t v : tag) EXPECT_EQ(v, tag[0]);
      c->seen.push_back(tag[0]);
    };
    static_assert(Callback::fits_inline<decltype(fire)>());
    ctx.e.schedule_detached(time::ms(static_cast<std::int64_t>(i)),
                            std::move(fire));
  }
  ctx.e.run();
  ASSERT_EQ(ctx.seen.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(ctx.seen[i], i);
  EXPECT_EQ(live, 0);  // every fired capture was destroyed after its run
  EXPECT_EQ(ctx.e.pending(), 0u);
  EXPECT_EQ(ctx.e.executed(), 8u + 16u);
}

}  // namespace
}  // namespace rill::sim
