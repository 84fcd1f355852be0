// SpscRing unit and stress coverage: boundary conditions around the
// one-slot sentinel (full/empty, capacity 1, wraparound) and a cross-thread
// producer/consumer run that CI also executes under TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/spsc_ring.hpp"

namespace urcgc::rt {
namespace {

TEST(SpscRing, StartsEmptyWithStatedCapacity) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, PushPopIsFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, RefusesPushExactlyAtCapacity) {
  SpscRing<int> ring(3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_FALSE(ring.try_push(99));  // full: the sentinel slot stays empty
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(3));  // one slot freed, push succeeds again
  EXPECT_FALSE(ring.try_push(100));
}

TEST(SpscRing, FailedPushDoesNotConsumeTheValue) {
  SpscRing<std::unique_ptr<int>> ring(1);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  auto second = std::make_unique<int>(8);
  EXPECT_FALSE(ring.try_push(std::move(second)));
  // The contract says a refused push leaves the caller's value intact so
  // the overflow path can still spill it.
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 8);
}

TEST(SpscRing, CapacityOneAlternatesFullEmpty) {
  SpscRing<int> ring(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.try_push(int{i}));
    EXPECT_FALSE(ring.try_push(int{i + 100}));  // full after one element
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
    EXPECT_FALSE(ring.try_pop(out));  // empty again
  }
}

TEST(SpscRing, WraparoundPreservesFifoAcrossManyCycles) {
  // Capacity 4 means the cursors lap the 5-slot buffer every few
  // operations; push bursts of varying size so head and tail cross the
  // wrap point at different offsets.
  SpscRing<int> ring(4);
  int pushed = 0;
  int popped = 0;
  for (int burst = 1; pushed < 1000; burst = burst % 4 + 1) {
    for (int i = 0; i < burst && ring.try_push(int{pushed}); ++i) ++pushed;
    for (int i = 0; i < burst - 1; ++i) {
      int out = -1;
      if (!ring.try_pop(out)) break;
      ASSERT_EQ(out, popped);
      ++popped;
    }
  }
  int out = -1;
  while (ring.try_pop(out)) {
    ASSERT_EQ(out, popped);
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CrossThreadStressDeliversEverythingInOrder) {
  // One producer, one consumer, a deliberately tiny ring so both sides
  // constantly hit the full/empty boundaries. TSan (the CI `sanitizers`
  // job) checks the acquire/release pairing; the sequence check below
  // checks FIFO.
  constexpr int kMessages = 50'000;
  SpscRing<int> ring(8);
  std::thread producer([&] {
    for (int i = 0; i < kMessages;) {
      if (ring.try_push(int{i})) {
        ++i;
      } else {
        std::this_thread::yield();  // full: single-core boxes need the hint
      }
    }
  });
  int expected = 0;
  while (expected < kMessages) {
    int out = -1;
    if (!ring.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(expected, kMessages);
}

}  // namespace
}  // namespace urcgc::rt
