#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_guard.hpp"
#include "core/history.hpp"

namespace urcgc::core {
namespace {

AppMessage make(ProcessId origin, Seq seq) {
  AppMessage msg;
  msg.mid = {origin, seq};
  if (seq > 1) msg.deps.push_back({origin, seq - 1});
  msg.payload = {static_cast<std::uint8_t>(seq & 0xFF)};
  return msg;
}

TEST(History, StartsEmpty) {
  History h(3);
  EXPECT_EQ(h.total_size(), 0u);
  EXPECT_EQ(h.n(), 3);
  EXPECT_FALSE(h.contains({0, 1}));
  EXPECT_EQ(h.max_stored(0), kNoSeq);
  EXPECT_EQ(h.min_stored(0), kNoSeq);
}

TEST(History, StoreAndFind) {
  History h(2);
  EXPECT_TRUE(h.store(make(0, 1)));
  const AppMessage* found = h.find({0, 1});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->mid, (Mid{0, 1}));
  EXPECT_EQ(h.total_size(), 1u);
  EXPECT_EQ(h.size_of(0), 1u);
  EXPECT_EQ(h.size_of(1), 0u);
}

TEST(History, DuplicateStoreIgnored) {
  History h(2);
  EXPECT_TRUE(h.store(make(0, 1)));
  EXPECT_FALSE(h.store(make(0, 1)));
  EXPECT_EQ(h.total_size(), 1u);
}

TEST(History, RangeReturnsSeqOrder) {
  History h(2);
  h.store(make(0, 3));
  h.store(make(0, 1));
  h.store(make(0, 2));
  auto range = h.range(0, 1, 3, 10);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].mid.seq, 1);
  EXPECT_EQ(range[1].mid.seq, 2);
  EXPECT_EQ(range[2].mid.seq, 3);
}

TEST(History, RangeRespectsBoundsAndGaps) {
  History h(2);
  h.store(make(0, 1));
  h.store(make(0, 3));  // 2 missing
  h.store(make(0, 5));
  auto range = h.range(0, 2, 4, 10);
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].mid.seq, 3);
}

TEST(History, RangeHonoursMaxCount) {
  History h(1);
  for (Seq s = 1; s <= 20; ++s) h.store(make(0, s));
  auto range = h.range(0, 1, 20, 5);
  ASSERT_EQ(range.size(), 5u);
  EXPECT_EQ(range.back().mid.seq, 5);  // first five, in order
}

TEST(History, RangeEmptyForBadArgs) {
  History h(2);
  h.store(make(0, 1));
  EXPECT_TRUE(h.range(0, 3, 2, 10).empty());   // from > to
  EXPECT_TRUE(h.range(-1, 1, 2, 10).empty());  // bad origin
  EXPECT_TRUE(h.range(5, 1, 2, 10).empty());
}

TEST(History, PurgeRemovesPrefix) {
  History h(2);
  for (Seq s = 1; s <= 10; ++s) h.store(make(0, s));
  EXPECT_EQ(h.purge_upto(0, 6), 6u);
  EXPECT_EQ(h.total_size(), 4u);
  EXPECT_FALSE(h.contains({0, 6}));
  EXPECT_TRUE(h.contains({0, 7}));
  EXPECT_EQ(h.min_stored(0), 7);
}

TEST(History, PurgeIdempotent) {
  History h(1);
  for (Seq s = 1; s <= 5; ++s) h.store(make(0, s));
  EXPECT_EQ(h.purge_upto(0, 3), 3u);
  EXPECT_EQ(h.purge_upto(0, 3), 0u);
  EXPECT_EQ(h.purge_upto(0, 2), 0u);
}

TEST(History, PurgeZeroIsNoop) {
  History h(1);
  h.store(make(0, 1));
  EXPECT_EQ(h.purge_upto(0, kNoSeq), 0u);
  EXPECT_EQ(h.total_size(), 1u);
}

TEST(History, MaxMinStored) {
  History h(2);
  h.store(make(1, 4));
  h.store(make(1, 2));
  EXPECT_EQ(h.max_stored(1), 4);
  EXPECT_EQ(h.min_stored(1), 2);
}

TEST(History, OutOfRangeOriginQueriesDegradeGracefully) {
  // After a view shrink, callers may still query about cut members (or,
  // defensively, about ids that never existed). Every accessor degrades
  // like find/range/purge_upto do instead of throwing std::out_of_range.
  History h(3);
  h.store(make(1, 1));
  for (const ProcessId bad : {ProcessId{-1}, ProcessId{3}, ProcessId{99}}) {
    EXPECT_EQ(h.max_stored(bad), kNoSeq) << "origin " << bad;
    EXPECT_EQ(h.min_stored(bad), kNoSeq) << "origin " << bad;
    EXPECT_EQ(h.size_of(bad), 0u) << "origin " << bad;
    EXPECT_EQ(h.find({bad, 1}), nullptr) << "origin " << bad;
    EXPECT_TRUE(h.range(bad, 1, 5, 10).empty()) << "origin " << bad;
    EXPECT_EQ(h.purge_upto(bad, 5), 0u) << "origin " << bad;
  }
  EXPECT_EQ(h.total_size(), 1u);  // the in-range entry is untouched
}

TEST(History, RangeMaxCountZeroReturnsNothing) {
  History h(1);
  for (Seq s = 1; s <= 5; ++s) h.store(make(0, s));
  EXPECT_TRUE(h.range(0, 1, 5, 0).empty());
}

TEST(History, RangeExactlyAtCapReturnsWholeSpan) {
  // Stored count == max_count: the batch is complete, not truncated — the
  // recovery server distinguishes the two by fetching one past the cap.
  History h(1);
  for (Seq s = 1; s <= 8; ++s) h.store(make(0, s));
  auto at_cap = h.range(0, 1, 8, 8);
  ASSERT_EQ(at_cap.size(), 8u);
  EXPECT_EQ(at_cap.back().mid.seq, 8);
  // One past the cap proves there was nothing more to fetch.
  EXPECT_EQ(h.range(0, 1, 8, 9).size(), 8u);
}

TEST(History, VersionBumpsOnStoreAndPurgeOnly) {
  History h(2);
  const std::uint64_t v0 = h.version();
  h.store(make(0, 1));
  const std::uint64_t v1 = h.version();
  EXPECT_GT(v1, v0);
  h.store(make(0, 1));  // duplicate: ignored, no bump
  EXPECT_EQ(h.version(), v1);
  EXPECT_EQ(h.purge_upto(0, 5), 1u);
  const std::uint64_t v2 = h.version();
  EXPECT_GT(v2, v1);
  EXPECT_EQ(h.purge_upto(0, 5), 0u);  // nothing purged, no bump
  EXPECT_EQ(h.version(), v2);
  (void)h.range(0, 1, 5, 10);  // reads never bump
  EXPECT_EQ(h.version(), v2);
}

TEST(History, PerOriginIsolation) {
  History h(3);
  h.store(make(0, 1));
  h.store(make(1, 1));
  h.store(make(2, 1));
  EXPECT_EQ(h.purge_upto(1, 1), 1u);
  EXPECT_TRUE(h.contains({0, 1}));
  EXPECT_FALSE(h.contains({1, 1}));
  EXPECT_TRUE(h.contains({2, 1}));
}

std::vector<Seq> seqs_of(const std::vector<AppMessage>& messages) {
  std::vector<Seq> seqs;
  for (const AppMessage& msg : messages) seqs.push_back(msg.mid.seq);
  return seqs;
}

TEST(History, StoreReturnsTheStoredCopy) {
  History h(2);
  const AppMessage* stored = h.store(make(0, 2));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, make(0, 2));
  EXPECT_EQ(h.find({0, 2}), stored);
  // The copy keeps its address while other messages come and go.
  for (Seq s = 3; s <= 200; ++s) h.store(make(1, s));
  h.purge_upto(1, 150);
  EXPECT_EQ(h.find({0, 2}), stored);
  EXPECT_EQ(*stored, make(0, 2));
}

TEST(History, OutOfOrderStoresKeepSeqOrder) {
  History h(1);
  for (const Seq s : {5, 3, 9, 1, 4, 2, 8}) {
    EXPECT_NE(h.store(make(0, s)), nullptr) << s;
  }
  EXPECT_EQ(h.store(make(0, 4)), nullptr);  // duplicate after reordering
  EXPECT_EQ(seqs_of(h.range(0, 1, 9, 100)),
            (std::vector<Seq>{1, 2, 3, 4, 5, 8, 9}));
  EXPECT_EQ(h.min_stored(0), 1);
  EXPECT_EQ(h.max_stored(0), 9);
  for (const Seq s : {1, 2, 3, 4, 5, 8, 9}) {
    ASSERT_NE(h.find({0, s}), nullptr) << s;
    EXPECT_EQ(h.find({0, s})->payload, make(0, s).payload) << s;
  }
  EXPECT_FALSE(h.contains({0, 6}));
  EXPECT_FALSE(h.contains({0, 7}));
  EXPECT_FALSE(h.contains({0, 10}));
}

TEST(History, StoreBelowMinimumAfterPurge) {
  History h(1);
  for (Seq s = 1; s <= 10; ++s) h.store(make(0, s));
  EXPECT_EQ(h.purge_upto(0, 5), 5u);
  ASSERT_NE(h.store(make(0, 3)), nullptr);
  EXPECT_EQ(h.min_stored(0), 3);
  EXPECT_EQ(h.size_of(0), 6u);
  EXPECT_EQ(seqs_of(h.range(0, 1, 10, 100)),
            (std::vector<Seq>{3, 6, 7, 8, 9, 10}));
  // Purging again removes the re-stored message with the rest.
  EXPECT_EQ(h.purge_upto(0, 7), 3u);
  EXPECT_EQ(h.min_stored(0), 8);
}

TEST(History, PurgedSlotsAreReusedAcrossOrigins) {
  History h(3);
  for (Seq s = 1; s <= 40; ++s) h.store(make(0, s));
  const std::size_t capacity = h.slot_capacity();
  EXPECT_GE(capacity, 40u);
  EXPECT_EQ(h.purge_upto(0, 40), 40u);

  // Another origin's messages fill the freed slots: the pool does not grow.
  for (Seq s = 1; s <= 40; ++s) h.store(make(2, s));
  EXPECT_EQ(h.slot_capacity(), capacity);
  EXPECT_EQ(h.total_size(), 40u);
  EXPECT_FALSE(h.contains({0, 1}));
  for (Seq s = 1; s <= 40; ++s) {
    ASSERT_NE(h.find({2, s}), nullptr) << s;
    EXPECT_EQ(*h.find({2, s}), make(2, s)) << s;
  }
}

TEST(History, RangeAcrossHoles) {
  History h(1);
  for (const Seq s : {1, 2, 5, 6, 9, 12}) h.store(make(0, s));
  EXPECT_EQ(seqs_of(h.range(0, 2, 9, 100)), (std::vector<Seq>{2, 5, 6, 9}));
  // Bounds inside holes.
  EXPECT_EQ(seqs_of(h.range(0, 3, 8, 100)), (std::vector<Seq>{5, 6}));
  EXPECT_EQ(seqs_of(h.range(0, 7, 11, 100)), (std::vector<Seq>{9}));
  EXPECT_TRUE(h.range(0, 3, 4, 100).empty());
  EXPECT_TRUE(h.range(0, 13, 20, 100).empty());
  // The cap counts stored messages, not seqs spanned.
  EXPECT_EQ(seqs_of(h.range(0, 1, 12, 3)), (std::vector<Seq>{1, 2, 5}));
}

TEST(History, OutOfRangeOriginStoreAborts) {
  History h(2);
  EXPECT_DEATH(h.store(make(2, 1)), "assertion failed");
  EXPECT_DEATH(h.store(make(-1, 1)), "assertion failed");
}

TEST(History, HostileSeqAllocatesByCountNotSpan) {
  // Under general causality a member may process seq 2^40 right after seq 1
  // (the seq is the sender's to pick). The index must grow with the number
  // of stored messages: a seq-indexed table would try to allocate 2^40
  // slots here, which the cap turns into a test failure.
  History h(2);
  const Seq hostile = Seq{1} << 40;
  testsupport::AllocationCapGuard guard(1u << 20);
  ASSERT_NE(h.store(make(1, 1)), nullptr);
  ASSERT_NE(h.store(make(1, hostile)), nullptr);
  ASSERT_NE(h.store(make(1, hostile - 1)), nullptr);
  EXPECT_EQ(h.size_of(1), 3u);
  EXPECT_EQ(h.max_stored(1), hostile);
  EXPECT_TRUE(h.contains({1, hostile}));
  EXPECT_FALSE(h.contains({1, 2}));
  EXPECT_EQ(seqs_of(h.range(1, 1, hostile, 10)),
            (std::vector<Seq>{1, hostile - 1, hostile}));
  EXPECT_EQ(h.purge_upto(1, hostile), 3u);
  EXPECT_EQ(h.total_size(), 0u);
}

}  // namespace
}  // namespace urcgc::core
