#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "alloc_guard.hpp"
#include "causal/mid_index.hpp"
#include "causal/waiting_list.hpp"
#include "common/rng.hpp"

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

TEST(WaitingList, RepeatedMissingMidCountsOnce) {
  WaitingList list;
  const std::vector<Mid> missing{{0, 1}, {0, 2}, {0, 1}, {0, 1}};
  list.add(make({1, 1}, {{0, 1}, {0, 2}}), missing);
  EXPECT_TRUE(release(list, {0, 1}).empty());
  EXPECT_EQ(list.stats().wake_checks, 1u);
  auto released = release(list, {0, 2});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].mid, (Mid{1, 1}));
  EXPECT_TRUE(list.missing_mids().empty());
}

TEST(WaitingList, RemovedEntryLeavesNoEdgeOnItsReusedSlot) {
  // An extracted or discarded entry must take its edges off every waiter
  // list it was on: otherwise a later wake of its dependency would count
  // down whatever entry reuses its slot.
  WaitingList list;
  const std::vector<Mid> ab{{0, 1}, {0, 2}};
  list.add(make({1, 1}, ab), ab);
  ASSERT_TRUE(list.extract({1, 1}).has_value());
  EXPECT_TRUE(list.missing_mids().empty());

  const Mid c{0, 3};
  list.add(make({2, 1}, {c}), std::span(&c, 1));  // reuses the freed slot
  EXPECT_TRUE(release(list, {0, 1}).empty());
  EXPECT_TRUE(release(list, {0, 2}).empty());
  EXPECT_EQ(list.stats().wake_checks, 0u);
  EXPECT_TRUE(list.contains({2, 1}));

  const Mid gap{5, 1};
  list.add(make({3, 1}, {gap, c}), std::vector<Mid>{gap, c});
  EXPECT_EQ(list.discard_depending_on(5, 1), (std::vector<Mid>{{3, 1}}));
  list.add(make({4, 1}, {c}), std::span(&c, 1));  // reuses it again
  EXPECT_TRUE(release(list, gap).empty());
  auto released = release(list, c);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].mid, (Mid{2, 1}));
  EXPECT_EQ(released[1].mid, (Mid{4, 1}));
  EXPECT_EQ(list.stats().wake_checks, 2u);
  EXPECT_TRUE(list.empty());
}

/// Brute-force reference: the waiting list as a flat vector, every query a
/// full scan. Semantics only, no indexes.
class ModelWaitingList {
 public:
  bool add(const PendingMessage& msg, std::span<const Mid> missing) {
    if (contains(msg.mid)) return false;
    entries_.push_back(
        {msg.mid, msg.deps, std::set<Mid>(missing.begin(), missing.end())});
    return true;
  }
  [[nodiscard]] bool contains(const Mid& mid) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.mid == mid; });
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Released mids in arrival order.
  std::vector<Mid> on_processed(const Mid& mid) {
    std::vector<Mid> released;
    for (Entry& entry : entries_) {
      if (entry.missing.erase(mid) == 0) continue;
      ++stats_.wake_checks;
      if (entry.missing.empty()) released.push_back(entry.mid);
    }
    std::erase_if(entries_, [](const Entry& e) { return e.missing.empty(); });
    stats_.releases += released.size();
    return released;
  }
  [[nodiscard]] std::optional<Seq> oldest_waiting(ProcessId origin) const {
    std::optional<Seq> oldest;
    for (const Entry& entry : entries_) {
      if (entry.mid.origin == origin && (!oldest || entry.mid.seq < *oldest)) {
        oldest = entry.mid.seq;
      }
    }
    return oldest;
  }
  [[nodiscard]] std::vector<Mid> missing_mids() const {
    std::set<Mid> all;
    for (const Entry& entry : entries_) {
      all.insert(entry.missing.begin(), entry.missing.end());
    }
    return {all.begin(), all.end()};
  }
  std::vector<Mid> discard_depending_on(ProcessId origin, Seq gap_seq) {
    std::set<Mid> doomed;
    for (const Entry& entry : entries_) {
      bool hit = entry.mid.origin == origin && entry.mid.seq >= gap_seq;
      for (const Mid& dep : entry.deps) {
        hit = hit || (dep.origin == origin && dep.seq >= gap_seq);
      }
      if (hit) doomed.insert(entry.mid);
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (const Entry& entry : entries_) {
        if (doomed.contains(entry.mid)) continue;
        for (const Mid& dep : entry.missing) {
          if (doomed.contains(dep)) {
            doomed.insert(entry.mid);
            grew = true;
            break;
          }
        }
      }
    }
    std::erase_if(entries_,
                  [&](const Entry& e) { return doomed.contains(e.mid); });
    return {doomed.begin(), doomed.end()};
  }
  bool extract(const Mid& mid) {
    return std::erase_if(entries_,
                         [&](const Entry& e) { return e.mid == mid; }) > 0;
  }
  [[nodiscard]] const WaitingList::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Mid mid;
    DepList deps;
    std::set<Mid> missing;
  };
  std::vector<Entry> entries_;  // arrival order
  WaitingList::Stats stats_;
};

TEST(WaitingList, MatchesBruteForceModelUnderRandomOperations) {
  // Mixed adds (duplicate mids, repeated mids in `missing`), wakes,
  // discards and extracts over a small mid universe, so entries, waiter
  // lists and index cells are reused constantly. Every observable is
  // compared after every step.
  constexpr ProcessId kOrigins = 5;
  constexpr Seq kSeqs = 12;
  constexpr int kSteps = 10'000;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    auto random_mid = [&] {
      return Mid{static_cast<ProcessId>(rng.uniform(kOrigins)),
                 rng.uniform_range(1, kSeqs)};
    };
    WaitingList list;
    ModelWaitingList model;
    std::vector<PendingMessage> released;
    std::vector<Seq> oldest(kOrigins + 1);
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t op = rng.uniform(100);
      if (op < 50) {
        PendingMessage msg = make(random_mid(), {});
        const auto deps = 1 + rng.uniform(4);
        for (std::uint64_t d = 0; d < deps; ++d) {
          msg.deps.push_back(random_mid());
        }
        std::vector<Mid> missing;
        for (const Mid& dep : msg.deps) {
          const auto copies = rng.uniform(3);  // 0, 1 or 2 times
          missing.insert(missing.end(), copies, dep);
        }
        if (missing.empty()) missing.push_back(msg.deps.front());
        std::shuffle(missing.begin(), missing.end(), rng);
        const bool expected = model.add(msg, missing);
        ASSERT_EQ(list.add(std::move(msg), missing), expected);
      } else if (op < 88) {
        const Mid mid = random_mid();
        released.clear();
        list.on_processed(mid, released);
        const std::vector<Mid> expected = model.on_processed(mid);
        ASSERT_EQ(released.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(released[i].mid, expected[i]);
          ASSERT_EQ(released[i].payload,
                    std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>(expected[i].seq)});
        }
      } else if (op < 92) {
        const auto origin = static_cast<ProcessId>(rng.uniform(kOrigins));
        const Seq gap = rng.uniform_range(1, kSeqs);
        ASSERT_EQ(list.discard_depending_on(origin, gap),
                  model.discard_depending_on(origin, gap));
      } else {
        const Mid mid = random_mid();
        const auto extracted = list.extract(mid);
        ASSERT_EQ(extracted.has_value(), model.extract(mid));
        if (extracted) {
          ASSERT_EQ(extracted->mid, mid);
        }
      }

      ASSERT_EQ(list.size(), model.size());
      ASSERT_EQ(list.empty(), model.size() == 0);
      for (ProcessId o = 0; o < kOrigins; ++o) {
        for (Seq s = 1; s <= kSeqs; ++s) {
          ASSERT_EQ(list.contains({o, s}), model.contains({o, s}));
        }
      }
      list.oldest_waiting_into(oldest);
      for (ProcessId o = 0; o <= kOrigins; ++o) {
        const auto expected = model.oldest_waiting(o);
        ASSERT_EQ(list.oldest_waiting(o), expected);
        ASSERT_EQ(oldest[static_cast<std::size_t>(o)],
                  expected.value_or(kNoSeq));
      }
      ASSERT_EQ(list.missing_mids(), model.missing_mids());
      ASSERT_EQ(list.stats().wake_checks, model.stats().wake_checks);
      ASSERT_EQ(list.stats().releases, model.stats().releases);
    }
  }
}

TEST(WaitingList, ParkAndReleaseStopAllocatingAfterWarmUp) {
  // Ten origins, each message blocked on one or two predecessors: once the
  // pools and both indexes have grown to the working set, a park/release
  // cycle allocates nothing.
  WaitingList list;
  std::vector<PendingMessage> released;
  std::vector<PendingMessage> batch;
  auto cycle = [&](Seq base) {
    for (ProcessId p = 0; p < 10; ++p) {
      batch.push_back(make({p, base + 1}, {{p, base}, {(p + 1) % 10, base}}));
    }
    const std::uint64_t before = testsupport::thread_allocations();
    for (PendingMessage& msg : batch) {
      const Mid missing[2] = {msg.deps[0], msg.deps[1]};
      const auto count = static_cast<std::size_t>(msg.mid.origin % 2 + 1);
      list.add(std::move(msg), std::span(missing, count));
    }
    for (ProcessId p = 0; p < 10; ++p) {
      released.clear();
      list.on_processed({p, base}, released);
    }
    const std::uint64_t allocations =
        testsupport::thread_allocations() - before;
    batch.clear();
    return allocations;
  };
  for (Seq base = 1; base <= 20; ++base) (void)cycle(base);
  std::uint64_t allocations = 0;
  for (Seq base = 21; base <= 220; ++base) allocations += cycle(base);
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(list.empty());
}

std::vector<Mid> colliding_mids(std::size_t cells, std::size_t count) {
  // Mids whose home cell in a table of `cells` cells is 0: they share one
  // probe chain.
  std::vector<Mid> mids;
  for (Seq s = 1; mids.size() < count; ++s) {
    const Mid mid{3, s};
    if ((std::hash<Mid>{}(mid) & (cells - 1)) == 0) mids.push_back(mid);
  }
  return mids;
}

TEST(MidIndex, EraseInTheMiddleOfAProbeChainKeepsTheRestReachable) {
  MidIndex index;
  const std::vector<Mid> chain = colliding_mids(16, 6);
  for (std::uint32_t i = 0; i < chain.size(); ++i) index.insert(chain[i], i);
  ASSERT_EQ(index.capacity(), 16u);

  EXPECT_TRUE(index.erase(chain[2]));
  EXPECT_FALSE(index.erase(chain[2]));
  EXPECT_EQ(index.find(chain[2]), nullptr);
  for (std::uint32_t i : {0u, 1u, 3u, 4u, 5u}) {
    ASSERT_NE(index.find(chain[i]), nullptr) << i;
    EXPECT_EQ(*index.find(chain[i]), i);
  }
  EXPECT_TRUE(index.erase(chain[0]));  // the chain's head
  EXPECT_TRUE(index.erase(chain[5]));  // its tail
  index.insert(chain[2], 22);
  for (std::uint32_t i : {1u, 3u, 4u}) EXPECT_EQ(*index.find(chain[i]), i);
  EXPECT_EQ(*index.find(chain[2]), 22u);
  EXPECT_EQ(index.size(), 4u);
}

TEST(MidIndex, ChurnMatchesAMapAndKeepsItsCapacity) {
  // Random inserts and erases with at most 100 live keys. Backward-shift
  // deletion leaves no tombstones, so the table never grows past the
  // first size that holds 100 keys at load <= 3/4.
  MidIndex index;
  std::map<Mid, std::uint32_t> model;
  Rng rng(7);
  for (std::uint32_t step = 0; step < 200'000; ++step) {
    const Mid mid{static_cast<ProcessId>(rng.uniform(4)),
                  rng.uniform_range(1, 60)};
    const bool present = model.contains(mid);
    ASSERT_EQ(index.find(mid) != nullptr, present);
    if (present) {
      ASSERT_EQ(*index.find(mid), model[mid]);
      ASSERT_TRUE(index.erase(mid));
      model.erase(mid);
    } else if (model.size() < 100) {
      index.insert(mid, step);
      model[mid] = step;
    }
    ASSERT_EQ(index.size(), model.size());
  }
  EXPECT_LE(index.capacity(), 256u);
  std::map<Mid, std::uint32_t> seen;
  index.for_each([&](const Mid& mid, std::uint32_t value) {
    EXPECT_TRUE(seen.emplace(mid, value).second);
  });
  EXPECT_EQ(seen, model);
}

}  // namespace
}  // namespace urcgc::causal
