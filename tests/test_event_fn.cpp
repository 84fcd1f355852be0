#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "alloc_guard.hpp"
#include "net/packet.hpp"
#include "runtime/event_fn.hpp"

namespace urcgc::rt {
namespace {

using testsupport::thread_allocations;

/// Capture that records how often it was destroyed while still owning its
/// state (a moved-from copy owns nothing) and how many copies are alive.
struct Probe {
  int* live;
  int* final_destructions;
  bool owner = true;

  Probe(int* live_count, int* finals)
      : live(live_count), final_destructions(finals) {
    ++*live;
  }
  Probe(Probe&& other) noexcept
      : live(other.live),
        final_destructions(other.final_destructions),
        owner(std::exchange(other.owner, false)) {
    ++*live;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    --*live;
    if (owner) ++*final_destructions;
  }
};

TEST(EventFn, EmptyByDefault) {
  EventFn fn;
  EXPECT_FALSE(fn);
}

TEST(EventFn, DatagramHopClosureIsStoredInline) {
  // The closure net::Network posts per simulated datagram: `this` plus a
  // Packet. It must not cost a heap allocation.
  struct Hop {
    void* self;
    net::Packet packet;
    void operator()() {}
  };
  static_assert(EventFn::kStoredInline<Hop>);
  const std::uint64_t before = thread_allocations();
  int calls = 0;
  EventFn fn([&calls, hop = Hop{}]() mutable {
    hop();
    ++calls;
  });
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(thread_allocations(), before);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): moved-from is empty
}

TEST(EventFn, LargeCaptureFallsBackToHeap) {
  std::array<char, 4 * EventFn::kInlineSize> big{};
  big.back() = 7;
  int seen = 0;
  auto lambda = [big, &seen] { seen = big.back(); };
  static_assert(!EventFn::kStoredInline<decltype(lambda)>);

  const std::uint64_t before = thread_allocations();
  EventFn fn(std::move(lambda));
  EXPECT_EQ(thread_allocations(), before + 1);
  // Moving a heap-stored target hands over the pointer: no new allocation.
  EventFn moved = std::move(fn);
  EXPECT_EQ(thread_allocations(), before + 1);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(EventFn, MoveOnlyCaptureWorks) {
  auto value = std::make_unique<int>(41);
  int result = 0;
  EventFn fn([p = std::move(value), &result] { result = *p + 1; });
  EventFn moved;
  moved = std::move(fn);
  moved();
  EXPECT_EQ(result, 42);
}

TEST(EventFn, ConstCallRunsMutableTarget) {
  // A const call operator still runs a `mutable` lambda's state forward, so
  // a decorator that captures an EventFn in a non-mutable lambda (where the
  // capture is const) compiles and behaves like the bare closure.
  int observed = 0;
  const EventFn fn([count = 0, &observed]() mutable { observed = ++count; });
  fn();
  fn();
  EXPECT_EQ(observed, 2);

  EventFn inner([count = 10, &observed]() mutable { observed = ++count; });
  EventFn wrapper([inner = std::move(inner)] { inner(); });
  wrapper();
  wrapper();
  EXPECT_EQ(observed, 12);
}

TEST(EventFn, InlineTargetDestroyedExactlyOnce) {
  int live = 0;
  int finals = 0;
  {
    EventFn fn([probe = Probe(&live, &finals)] { (void)probe; });
    EXPECT_EQ(live, 1);
    EventFn moved = std::move(fn);
    EventFn assigned;
    assigned = std::move(moved);
    EXPECT_EQ(live, 1);  // each move relocates; the source is destroyed
    EXPECT_EQ(finals, 0);
    assigned();
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(finals, 1);
}

TEST(EventFn, HeapTargetDestroyedExactlyOnce) {
  int live = 0;
  int finals = 0;
  {
    std::array<char, 2 * EventFn::kInlineSize> pad{};
    auto lambda = [probe = Probe(&live, &finals), pad] { (void)probe; };
    static_assert(!EventFn::kStoredInline<decltype(lambda)>);
    EventFn fn(std::move(lambda));
    EventFn moved = std::move(fn);
    moved();
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(finals, 1);
}

TEST(EventFn, AssignmentReplacesAndDestroysOldTarget) {
  int live = 0;
  int finals = 0;
  int ran = 0;
  EventFn fn([probe = Probe(&live, &finals)] { (void)probe; });
  fn = EventFn([&ran] { ++ran; });
  EXPECT_EQ(live, 0);
  EXPECT_EQ(finals, 1);
  fn();
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace urcgc::rt
