#include <gtest/gtest.h>

#include <vector>

#include "causal/waiting_list.hpp"

namespace urcgc::causal {
namespace {

PendingMessage make(Mid mid, std::vector<Mid> deps) {
  PendingMessage msg;
  msg.mid = mid;
  msg.deps = std::move(deps);
  msg.payload = {static_cast<std::uint8_t>(mid.seq)};
  return msg;
}

/// Releases into a fresh buffer: the tests inspect one wake at a time.
std::vector<PendingMessage> release(WaitingList& list, const Mid& mid) {
  std::vector<PendingMessage> released;
  list.on_processed(mid, released);
  return released;
}

TEST(WaitingList, StartsEmpty) {
  WaitingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_FALSE(list.oldest_waiting(0).has_value());
  EXPECT_TRUE(list.missing_mids().empty());
}

TEST(WaitingList, AddAndContains) {
  WaitingList list;
  const Mid dep{0, 1};
  EXPECT_TRUE(list.add(make({1, 1}, {dep}), std::span(&dep, 1)));
  EXPECT_TRUE(list.contains({1, 1}));
  EXPECT_FALSE(list.contains({1, 2}));
  EXPECT_EQ(list.size(), 1u);
}

TEST(WaitingList, DuplicateAddRejected) {
  WaitingList list;
  const Mid dep{0, 1};
  EXPECT_TRUE(list.add(make({1, 1}, {dep}), std::span(&dep, 1)));
  EXPECT_FALSE(list.add(make({1, 1}, {dep}), std::span(&dep, 1)));
  EXPECT_EQ(list.size(), 1u);
}

TEST(WaitingList, ReleaseOnLastMissingDep) {
  WaitingList list;
  const std::vector<Mid> missing{{0, 1}, {0, 2}};
  list.add(make({1, 1}, missing), missing);

  EXPECT_TRUE(release(list, {0, 1}).empty());  // one dep still missing
  auto released = release(list, {0, 2});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].mid, (Mid{1, 1}));
  EXPECT_TRUE(list.empty());
}

TEST(WaitingList, ReleasePreservesArrivalOrder) {
  WaitingList list;
  const Mid dep{0, 1};
  list.add(make({1, 1}, {dep}), std::span(&dep, 1));
  list.add(make({2, 1}, {dep}), std::span(&dep, 1));
  list.add(make({3, 1}, {dep}), std::span(&dep, 1));
  auto released = release(list, dep);
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0].mid, (Mid{1, 1}));
  EXPECT_EQ(released[1].mid, (Mid{2, 1}));
  EXPECT_EQ(released[2].mid, (Mid{3, 1}));
}

TEST(WaitingList, OnProcessedUnknownMidIsNoop) {
  WaitingList list;
  EXPECT_TRUE(release(list, {5, 5}).empty());
}

TEST(WaitingList, OldestWaitingPerOrigin) {
  WaitingList list;
  const Mid dep{0, 1};
  list.add(make({1, 7}, {dep}), std::span(&dep, 1));
  list.add(make({1, 3}, {dep}), std::span(&dep, 1));
  list.add(make({2, 9}, {dep}), std::span(&dep, 1));
  EXPECT_EQ(list.oldest_waiting(1).value(), 3);
  EXPECT_EQ(list.oldest_waiting(2).value(), 9);
  EXPECT_FALSE(list.oldest_waiting(0).has_value());
}

TEST(WaitingList, OldestWaitingUpdatesOnRelease) {
  WaitingList list;
  const Mid dep{0, 1};
  list.add(make({1, 3}, {dep}), std::span(&dep, 1));
  const Mid dep2{0, 2};
  list.add(make({1, 7}, {dep2}), std::span(&dep2, 1));
  (void)release(list, dep);  // releases (1,3)
  EXPECT_EQ(list.oldest_waiting(1).value(), 7);
}

TEST(WaitingList, MissingMidsDeduplicated) {
  WaitingList list;
  const Mid dep{0, 5};
  list.add(make({1, 1}, {dep}), std::span(&dep, 1));
  list.add(make({2, 1}, {dep}), std::span(&dep, 1));
  auto missing = list.missing_mids();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], dep);
}

TEST(WaitingList, ChainedReleaseThroughWaitingMessage) {
  // (1,2) waits on (1,1); (1,3) waits on (1,2) which is itself waiting.
  WaitingList list;
  const Mid m11{1, 1};
  const Mid m12{1, 2};
  list.add(make(m12, {m11}), std::span(&m11, 1));
  list.add(make({1, 3}, {m12}), std::span(&m12, 1));

  auto first = release(list, m11);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].mid, m12);
  // Caller processes (1,2) and reports it:
  auto second = release(list, m12);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].mid, (Mid{1, 3}));
  EXPECT_TRUE(list.empty());
}

TEST(WaitingList, DiscardDirectDependents) {
  WaitingList list;
  const Mid gap{0, 2};
  list.add(make({1, 1}, {gap}), std::span(&gap, 1));
  const Mid other{3, 1};
  list.add(make({2, 1}, {other}), std::span(&other, 1));

  auto discarded = list.discard_depending_on(0, 2);
  ASSERT_EQ(discarded.size(), 1u);
  EXPECT_EQ(discarded[0], (Mid{1, 1}));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.contains({2, 1}));
}

TEST(WaitingList, DiscardCoversLaterSeqsOfOrigin) {
  WaitingList list;
  const Mid dep{9, 9};
  // Messages *from* the gapped origin at/after the gap must go too.
  list.add(make({0, 2}, {dep}), std::span(&dep, 1));
  list.add(make({0, 5}, {dep}), std::span(&dep, 1));
  list.add(make({0, 1}, {dep}), std::span(&dep, 1));  // before gap: stays

  auto discarded = list.discard_depending_on(0, 2);
  EXPECT_EQ(discarded.size(), 2u);
  EXPECT_TRUE(list.contains({0, 1}));
  EXPECT_FALSE(list.contains({0, 2}));
  EXPECT_FALSE(list.contains({0, 5}));
}

TEST(WaitingList, DiscardTransitiveClosure) {
  WaitingList list;
  const Mid gap{0, 3};
  const Mid a{1, 1};
  const Mid b{2, 1};
  list.add(make(a, {gap}), std::span(&gap, 1));   // a depends on the gap
  list.add(make(b, {a}), std::span(&a, 1));       // b depends on a
  const Mid c{3, 1};
  list.add(make(c, {b}), std::span(&b, 1));       // c depends on b

  auto discarded = list.discard_depending_on(0, 3);
  EXPECT_EQ(discarded.size(), 3u);
  EXPECT_TRUE(list.empty());
}

TEST(WaitingList, DiscardReturnsSortedMids) {
  WaitingList list;
  const Mid gap{0, 1};
  list.add(make({5, 1}, {gap}), std::span(&gap, 1));
  list.add(make({2, 1}, {gap}), std::span(&gap, 1));
  auto discarded = list.discard_depending_on(0, 1);
  ASSERT_EQ(discarded.size(), 2u);
  EXPECT_LT(discarded[0], discarded[1]);
}

TEST(WaitingList, DiscardNothingWhenNoMatch) {
  WaitingList list;
  const Mid dep{1, 1};
  list.add(make({2, 1}, {dep}), std::span(&dep, 1));
  EXPECT_TRUE(list.discard_depending_on(0, 5).empty());
  EXPECT_EQ(list.size(), 1u);
}

TEST(WaitingList, ExtractRemovesEntry) {
  WaitingList list;
  const Mid dep{0, 1};
  list.add(make({1, 4}, {dep}), std::span(&dep, 1));
  auto extracted = list.extract({1, 4});
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->mid, (Mid{1, 4}));
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.extract({1, 4}).has_value());
  EXPECT_FALSE(list.oldest_waiting(1).has_value());
}

TEST(WaitingList, PartialSatisfactionKeepsEntryIndexed) {
  WaitingList list;
  const std::vector<Mid> missing{{0, 1}, {0, 2}, {0, 3}};
  list.add(make({1, 1}, missing), missing);
  (void)release(list, {0, 2});
  auto left = list.missing_mids();
  EXPECT_EQ(left.size(), 2u);
  EXPECT_TRUE(list.contains({1, 1}));
}

TEST(WaitingList, WakePathExaminesOnlyDependentsOfProcessedMid) {
  // The churn scenario of pipelining depth k >= 2: a deep waiting list is
  // the steady state, and most deliveries are unrelated to most entries. A
  // delivery must examine exactly the entries blocked on it — a full-list
  // rescan would show up here as wake_checks growing by size() per call.
  WaitingList list;
  constexpr int kDeep = 500;
  // 500 entries blocked on origin 7, none of them on origin 0.
  for (Seq s = 1; s <= kDeep; ++s) {
    const Mid dep{7, s};
    list.add(make({1, s}, {dep}), std::span(&dep, 1));
  }
  // Three entries blocked on (0,1); one of them also on (0,2).
  const Mid hot{0, 1};
  list.add(make({2, 1}, {hot}), std::span(&hot, 1));
  list.add(make({3, 1}, {hot}), std::span(&hot, 1));
  const std::vector<Mid> two{{0, 1}, {0, 2}};
  list.add(make({4, 1}, two), two);
  ASSERT_EQ(list.size(), static_cast<std::size_t>(kDeep) + 3);

  // Processing (0,1) wakes exactly its 3 dependents — never the 500
  // entries parked on origin 7.
  auto released = release(list, hot);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(list.stats().wake_checks, 3u);
  EXPECT_EQ(list.stats().releases, 2u);

  // A delivery nothing waits on examines nothing.
  EXPECT_TRUE(release(list, {0, 9}).empty());
  EXPECT_EQ(list.stats().wake_checks, 3u);

  // Finishing (0,2) touches only the one remaining dependent. Cumulative
  // checks stay at dependents-touched (4), far below the O(deliveries x
  // size) a rescan implementation would accumulate (> 1500 here).
  released = release(list, {0, 2});
  EXPECT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].mid, (Mid{4, 1}));
  EXPECT_EQ(list.stats().wake_checks, 4u);
  EXPECT_EQ(list.stats().releases, 3u);
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kDeep));
}

}  // namespace
}  // namespace urcgc::causal
