#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_guard.hpp"
#include "core/mt_entity.hpp"

namespace urcgc::core {
namespace {

Config small_config(int n = 4) {
  Config config;
  config.n = n;
  return config;
}

AppMessage make(ProcessId origin, Seq seq, std::vector<Mid> deps = {}) {
  AppMessage msg;
  msg.mid = {origin, seq};
  msg.deps = std::move(deps);
  msg.payload = {static_cast<std::uint8_t>(seq & 0xFF)};
  return msg;
}

/// What serve_recovery offers, decoded (an empty batch when it offers
/// nothing).
RecoverRsp served(const MtEntity& mt, const RecoverRq& rq) {
  const std::vector<std::uint8_t> frame = mt.serve_recovery(rq);
  if (frame.empty()) return RecoverRsp{};
  auto pdu = decode_pdu(frame);
  EXPECT_TRUE(pdu.has_value());
  return std::get<RecoverRsp>(std::move(pdu).value());
}

/// Message under the intermediate interpretation: implicit predecessor.
AppMessage chained(ProcessId origin, Seq seq, std::vector<Mid> extra = {}) {
  auto deps = std::move(extra);
  if (seq > 1) deps.push_back({origin, seq - 1});
  return make(origin, seq, std::move(deps));
}

TEST(MtEntity, ProcessesRootImmediately) {
  MtEntity mt(small_config(), 0, nullptr);
  std::vector<Mid> delivered;
  mt.set_on_processed(
      [&](const AppMessage& msg) { delivered.push_back(msg.mid); });
  mt.submit(chained(1, 1), 10);
  EXPECT_EQ(delivered, (std::vector<Mid>{{1, 1}}));
  EXPECT_EQ(mt.prefix(1), 1);
  EXPECT_EQ(mt.history_size(), 1u);
  EXPECT_EQ(mt.waiting_size(), 0u);
}

TEST(MtEntity, HoldsMessageWithMissingDep) {
  MtEntity mt(small_config(), 0, nullptr);
  mt.submit(chained(1, 2), 10);  // needs (1,1)
  EXPECT_EQ(mt.waiting_size(), 1u);
  EXPECT_EQ(mt.prefix(1), 0);
  EXPECT_FALSE(mt.processed({1, 2}));
}

TEST(MtEntity, ReleasesChainInOrder) {
  MtEntity mt(small_config(), 0, nullptr);
  std::vector<Mid> delivered;
  mt.set_on_processed(
      [&](const AppMessage& msg) { delivered.push_back(msg.mid); });
  mt.submit(chained(1, 3), 10);
  mt.submit(chained(1, 2), 11);
  EXPECT_TRUE(delivered.empty());
  mt.submit(chained(1, 1), 12);
  EXPECT_EQ(delivered, (std::vector<Mid>{{1, 1}, {1, 2}, {1, 3}}));
  EXPECT_EQ(mt.prefix(1), 3);
  EXPECT_EQ(mt.waiting_size(), 0u);
}

TEST(MtEntity, CrossOriginDependency) {
  MtEntity mt(small_config(), 0, nullptr);
  std::vector<Mid> delivered;
  mt.set_on_processed(
      [&](const AppMessage& msg) { delivered.push_back(msg.mid); });
  mt.submit(chained(2, 1, {{1, 1}}), 10);  // depends on p1's first
  EXPECT_TRUE(delivered.empty());
  mt.submit(chained(1, 1), 11);
  EXPECT_EQ(delivered, (std::vector<Mid>{{1, 1}, {2, 1}}));
}

TEST(MtEntity, DuplicateSubmissionsIgnored) {
  MtEntity mt(small_config(), 0, nullptr);
  int deliveries = 0;
  mt.set_on_processed([&](const AppMessage&) { ++deliveries; });
  mt.submit(chained(1, 1), 10);
  mt.submit(chained(1, 1), 11);  // already processed
  mt.submit(chained(1, 3), 12);  // waiting
  mt.submit(chained(1, 3), 13);  // already waiting
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(mt.duplicates_ignored(), 2u);
}

TEST(MtEntity, LastProcessedVector) {
  MtEntity mt(small_config(3), 0, nullptr);
  mt.submit(chained(0, 1), 1);
  mt.submit(chained(2, 1), 2);
  mt.submit(chained(2, 2), 3);
  std::vector<Seq> out{7, 7, 7, 7};  // stale contents are overwritten
  mt.last_processed_into(out, 3);
  EXPECT_EQ(out, (std::vector<Seq>{1, 0, 2}));
  mt.last_processed_into(out, 2);  // a narrower live view
  EXPECT_EQ(out, (std::vector<Seq>{1, 0}));
}

TEST(MtEntity, OldestWaitingVector) {
  MtEntity mt(small_config(3), 0, nullptr);
  mt.submit(chained(1, 5), 1);
  mt.submit(chained(1, 4), 2);
  mt.submit(chained(2, 9), 3);
  std::vector<Seq> out{7, 7};  // stale contents are overwritten
  mt.oldest_waiting_into(out, 3);
  EXPECT_EQ(out, (std::vector<Seq>{kNoSeq, 4, 9}));
  mt.oldest_waiting_into(out, 2);  // a narrower live view
  EXPECT_EQ(out, (std::vector<Seq>{kNoSeq, 4}));
}

TEST(MtEntity, ServeRecoveryFromHistory) {
  MtEntity mt(small_config(), 0, nullptr);
  for (Seq s = 1; s <= 5; ++s) mt.submit(chained(1, s), s);
  RecoverRq rq{2, 1, 2, 4};
  RecoverRsp rsp = served(mt, rq);
  EXPECT_EQ(rsp.from, 0);
  EXPECT_EQ(rsp.origin, 1);
  ASSERT_EQ(rsp.messages.size(), 3u);
  EXPECT_EQ(rsp.messages[0].mid.seq, 2);
  EXPECT_EQ(rsp.messages[2].mid.seq, 4);
}

TEST(MtEntity, ServeRecoveryRespectsBatchCap) {
  Config config = small_config();
  config.max_recover_batch = 2;
  MtEntity mt(config, 0, nullptr);
  for (Seq s = 1; s <= 10; ++s) mt.submit(chained(1, s), s);
  RecoverRsp rsp = served(mt, RecoverRq{2, 1, 1, 10});
  EXPECT_TRUE(rsp.truncated);
  EXPECT_EQ(rsp.messages.size(), 2u);
  EXPECT_EQ(rsp.messages[0].mid.seq, 1);  // oldest first
}

TEST(MtEntity, ServeRecoveryEmptyWhenUnknown) {
  MtEntity mt(small_config(), 0, nullptr);
  EXPECT_TRUE(mt.serve_recovery(RecoverRq{2, 1, 1, 5}).empty());
}

TEST(MtEntity, CleanPurgesUpToStability) {
  MtEntity mt(small_config(2), 0, nullptr);
  for (Seq s = 1; s <= 6; ++s) mt.submit(chained(1, s), s);
  EXPECT_EQ(mt.clean({kNoSeq, 4}), 4u);
  EXPECT_EQ(mt.history_size(), 2u);
  // Processed state unaffected; only the recovery store shrank.
  EXPECT_EQ(mt.prefix(1), 6);
}

TEST(MtEntity, RepeatedCleaningPointPurgesOnlyNewMessages) {
  // Decisions re-advertise an unchanged clean_upto for every quiet origin;
  // clean() skips those, and a message stored after a purge is still
  // purged once the point moves past it.
  MtEntity mt(small_config(2), 0, nullptr);
  for (Seq s = 1; s <= 4; ++s) mt.submit(chained(1, s), s);
  EXPECT_EQ(mt.clean({kNoSeq, 3}), 3u);
  EXPECT_EQ(mt.clean({kNoSeq, 3}), 0u);
  mt.submit(chained(1, 5), 5);
  EXPECT_EQ(mt.clean({kNoSeq, 3}), 0u);
  EXPECT_EQ(mt.history_size(), 2u);
  EXPECT_EQ(mt.clean({kNoSeq, 5}), 2u);
  EXPECT_EQ(mt.history_size(), 0u);
  EXPECT_EQ(mt.clean_floor()[1], 5);
}

TEST(MtEntity, CleanBeyondPrefixAborts) {
  MtEntity mt(small_config(2), 0, nullptr);
  mt.submit(chained(1, 1), 1);
  EXPECT_DEATH((void)mt.clean({kNoSeq, 5}), "cleaning point");
}

TEST(MtEntity, DiscardOrphansRemovesDependents) {
  MtEntity mt(small_config(3), 0, nullptr);
  // (1,2) missing; (1,3) and (2,1)->(1,3) wait on the doomed chain.
  mt.submit(chained(1, 1), 1);
  mt.submit(chained(1, 3), 2);
  mt.submit(chained(2, 1, {{1, 3}}), 3);
  EXPECT_EQ(mt.waiting_size(), 2u);
  auto discarded = mt.discard_orphans(1, 2, 10);
  EXPECT_EQ(discarded.size(), 2u);
  EXPECT_EQ(mt.waiting_size(), 0u);
}

TEST(MtEntity, MissingRangesFromWaitingGaps) {
  MtEntity mt(small_config(3), 0, nullptr);
  mt.submit(chained(1, 1), 1);
  mt.submit(chained(1, 4), 2);  // gap: 2..3 missing
  auto ranges = mt.missing_ranges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].origin, 1);
  EXPECT_EQ(ranges[0].from_seq, 2);
  EXPECT_EQ(ranges[0].to_seq, 3);
}

TEST(MtEntity, MissingRangesSkipHeldMessages) {
  MtEntity mt(small_config(3), 0, nullptr);
  // (1,2) is held (waiting), only (1,1) is truly absent.
  mt.submit(chained(1, 2), 1);
  auto ranges = mt.missing_ranges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].from_seq, 1);
  EXPECT_EQ(ranges[0].to_seq, 1);
}

TEST(MtEntity, MissingRangesCrossOrigin) {
  MtEntity mt(small_config(4), 0, nullptr);
  mt.submit(chained(1, 1, {{2, 3}, {3, 1}}), 1);
  auto ranges = mt.missing_ranges();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].origin, 2);
  EXPECT_EQ(ranges[0].from_seq, 1);  // extended down to the first gap
  EXPECT_EQ(ranges[0].to_seq, 3);
  EXPECT_EQ(ranges[1].origin, 3);
  EXPECT_EQ(ranges[1].to_seq, 1);
}

TEST(MtEntity, ProcessingLogRecordsOrder) {
  MtEntity mt(small_config(2), 0, nullptr);
  mt.submit(chained(1, 1), 1);
  mt.submit(chained(0, 1), 2);
  ASSERT_EQ(mt.processing_log().size(), 2u);
  EXPECT_EQ(mt.processing_log()[0], (Mid{1, 1}));
  EXPECT_EQ(mt.processing_log()[1], (Mid{0, 1}));
}

TEST(MtEntity, RecoveredMessagesFlowThroughNormalPath) {
  MtEntity source(small_config(2), 0, nullptr);
  for (Seq s = 1; s <= 3; ++s) source.submit(chained(1, s), s);

  MtEntity behind(small_config(2), 1, nullptr);
  behind.submit(chained(1, 3), 5);  // waiting: 1..2 missing
  auto rsp = served(source, RecoverRq{1, 1, 1, 2});
  for (const auto& msg : rsp.messages) behind.submit(msg, 6);
  EXPECT_EQ(behind.prefix(1), 3);
  EXPECT_EQ(behind.waiting_size(), 0u);
}

TEST(MtEntity, GeneralModeOutOfOrderProcessing) {
  // Under Definition 3.1 a process may root several sequences: (0,2) does
  // not depend on (0,1) and may be processed first.
  MtEntity mt(small_config(2), 1, nullptr);
  std::vector<Mid> delivered;
  mt.set_on_processed(
      [&](const AppMessage& msg) { delivered.push_back(msg.mid); });
  mt.submit(make(0, 2), 1);  // no deps at all: an independent root
  EXPECT_EQ(delivered, (std::vector<Mid>{{0, 2}}));
  EXPECT_EQ(mt.prefix(0), 0);  // prefix still gated by the gap at 1
  mt.submit(make(0, 1), 2);
  EXPECT_EQ(mt.prefix(0), 2);
}

TEST(MtEntity, InOrderProcessingIsAllocationFreeAfterWarmUp) {
  // The steady state of the delivery path: every message arrives after its
  // predecessor, is processed at once, and is cleaned a little later. Once
  // the history pool, the origin indexes and the scratch buffers have grown
  // to that working set, processing allocates nothing of its own (only the
  // processing log still doubles now and then).
  constexpr int kOrigins = 4;
  constexpr Seq kWarmUp = 500;     // per origin
  constexpr Seq kMeasured = 2500;  // per origin: 10k messages in total
  constexpr Seq kCleanEvery = 50;
  MtEntity mt(small_config(kOrigins), 0, nullptr);
  int delivered = 0;
  mt.set_on_processed([&](const AppMessage&) { ++delivered; });

  auto run = [&](Seq from, Seq to) {
    // Build the messages first: their deps/payload vectors are the
    // decoder's allocations, not the processing path's.
    std::vector<AppMessage> batch;
    for (Seq s = from; s <= to; ++s) {
      for (ProcessId p = 0; p < kOrigins; ++p) batch.push_back(chained(p, s));
    }
    std::vector<Seq> clean_upto(kOrigins);
    std::size_t unprocessed = 0;
    const std::uint64_t before = testsupport::thread_allocations();
    for (AppMessage& msg : batch) {
      const Mid mid = msg.mid;
      if (mt.submit(std::move(msg), mid.seq) !=
          MtEntity::SubmitResult::kProcessed) {
        ++unprocessed;
      }
      if (mid.origin == kOrigins - 1 && mid.seq % kCleanEvery == 0) {
        std::fill(clean_upto.begin(), clean_upto.end(),
                  mid.seq - kCleanEvery / 2);
        mt.clean(clean_upto);
      }
    }
    const std::uint64_t allocations =
        testsupport::thread_allocations() - before;
    EXPECT_EQ(unprocessed, 0u);
    return allocations;
  };

  (void)run(1, kWarmUp);
  std::uint64_t allocations = 0;
  // Measure in slices so the batch vectors stay small.
  for (Seq from = kWarmUp + 1; from <= kWarmUp + kMeasured; from += 500) {
    allocations += run(from, from + 499);
  }
  const double messages = static_cast<double>(kMeasured * kOrigins);
  EXPECT_EQ(delivered, static_cast<int>((kWarmUp + kMeasured) * kOrigins));
  EXPECT_LT(static_cast<double>(allocations) / messages, 0.05)
      << allocations << " allocations for " << messages << " messages";
  EXPECT_LE(mt.history_size(), static_cast<std::size_t>(kCleanEvery * kOrigins));
}

TEST(MtEntity, ParkAndReleaseIsAllocationFreeAfterWarmUp) {
  // The steady state at pipelining depth k >= 2: messages arrive out of
  // order, most park in the waiting list on one or two missing
  // predecessors (their own and a neighbour origin's), and each late
  // arrival releases a chain. Once the waiting list's pools and indexes
  // have grown to that working set, parking and releasing allocate
  // nothing of their own.
  constexpr int kOrigins = 4;
  constexpr Seq kWindow = 8;       // seqs per origin submitted newest first
  constexpr Seq kWarmUp = 400;     // per origin
  constexpr Seq kMeasured = 2400;  // per origin: 9600 messages in total
  constexpr Seq kCleanEvery = 48;
  MtEntity mt(small_config(kOrigins), 0, nullptr);
  int delivered = 0;
  mt.set_on_processed([&](const AppMessage&) { ++delivered; });
  std::vector<Seq> oldest;
  std::vector<Seq> clean_upto(kOrigins);

  auto run = [&](Seq from, Seq to) {
    // Build the messages first: their deps/payload vectors are the
    // decoder's allocations, not the processing path's.
    std::vector<AppMessage> batch;
    for (Seq window = from; window <= to; window += kWindow) {
      for (Seq s = window + kWindow - 1; s >= window; --s) {
        for (ProcessId p = 0; p < kOrigins; ++p) {
          std::vector<Mid> extra;
          if (s > 1) extra.push_back({(p + 1) % kOrigins, s - 1});
          batch.push_back(chained(p, s, std::move(extra)));
        }
      }
    }
    std::size_t parked = 0;
    const std::uint64_t before = testsupport::thread_allocations();
    for (AppMessage& msg : batch) {
      const Mid mid = msg.mid;
      if (mt.submit(std::move(msg), mid.seq) ==
          MtEntity::SubmitResult::kParked) {
        ++parked;
      }
      if (mid.origin != kOrigins - 1) continue;
      // What every REQUEST reports, read while the window is parked.
      mt.oldest_waiting_into(oldest, kOrigins);
      // (kOrigins - 1, window start) is the last message of its window:
      // everything below the window's end is processed now.
      if (mid.seq % kCleanEvery == 1 && mid.seq > kCleanEvery) {
        std::fill(clean_upto.begin(), clean_upto.end(),
                  mid.seq - kCleanEvery / 2);
        mt.clean(clean_upto);
      }
    }
    const std::uint64_t allocations =
        testsupport::thread_allocations() - before;
    EXPECT_GT(parked * 4, batch.size() * 3) << "most messages must park";
    EXPECT_EQ(mt.waiting_size(), 0u);
    return allocations;
  };

  (void)run(1, kWarmUp);
  std::uint64_t allocations = 0;
  for (Seq from = kWarmUp + 1; from <= kWarmUp + kMeasured; from += 400) {
    allocations += run(from, from + 399);
  }
  const double messages = static_cast<double>(kMeasured * kOrigins);
  EXPECT_EQ(delivered, static_cast<int>((kWarmUp + kMeasured) * kOrigins));
  EXPECT_LT(static_cast<double>(allocations) / messages, 0.05)
      << allocations << " allocations for " << messages << " messages";
}

TEST(MtEntity, ReentrantSubmitFinishesBeforeOuterReleases) {
  // deliver_ind may call submit(). The nested message, and everything it
  // releases, is processed before the waiters of the message whose
  // callback submitted it — the order a fresh queue per call produces.
  MtEntity mt(small_config(3), 0, nullptr);
  std::vector<Mid> delivered;
  mt.submit(chained(1, 2), 1);  // C: waits on A = (1,1)
  mt.submit(chained(2, 2), 2);  // D: waits on B = (2,1)
  bool submitted = false;
  mt.set_on_processed([&](const AppMessage& msg) {
    delivered.push_back(msg.mid);
    if (msg.mid == Mid{1, 1} && !submitted) {
      submitted = true;
      EXPECT_EQ(mt.submit(chained(2, 1), 4),
                MtEntity::SubmitResult::kProcessed);
    }
  });
  mt.submit(chained(1, 1), 3);  // A
  EXPECT_EQ(delivered,
            (std::vector<Mid>{{1, 1}, {2, 1}, {2, 2}, {1, 2}}));
  EXPECT_EQ(mt.processing_log(), delivered);
  EXPECT_EQ(mt.waiting_size(), 0u);
  EXPECT_EQ(mt.history_size(), 4u);
}

TEST(MtEntity, ReentrantSubmitDuringReleaseChain) {
  // Re-entry from the middle of a release chain: the outer chain resumes
  // where it stopped once the nested submission is done.
  MtEntity mt(small_config(3), 0, nullptr);
  for (Seq s = 2; s <= 40; ++s) mt.submit(chained(1, s), s);
  std::vector<Mid> delivered;
  mt.set_on_processed([&](const AppMessage& msg) {
    delivered.push_back(msg.mid);
    if (msg.mid.origin == 1 && msg.mid.seq % 10 == 0) {
      mt.submit(chained(2, msg.mid.seq / 10), 50);
    }
  });
  mt.submit(chained(1, 1), 1);
  std::vector<Mid> expected;
  for (Seq s = 1; s <= 40; ++s) {
    expected.push_back({1, s});
    if (s % 10 == 0) expected.push_back({2, s / 10});
  }
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(mt.prefix(1), 40);
  EXPECT_EQ(mt.prefix(2), 4);
}

TEST(MtEntity, HostileSeqUnderGeneralCausality) {
  // Under Definition 3.1 seq 2^40 may be processed right after seq 1 with
  // no dependency between them. Nothing on the processing path may size
  // itself by the seq span.
  Config config = small_config(2);
  config.causality = CausalityMode::kGeneral;
  MtEntity mt(config, 0, nullptr);
  const Seq hostile = Seq{1} << 40;
  testsupport::AllocationCapGuard guard(1u << 20);
  EXPECT_EQ(mt.submit(make(1, 1), 1), MtEntity::SubmitResult::kProcessed);
  EXPECT_EQ(mt.submit(make(1, hostile), 2),
            MtEntity::SubmitResult::kProcessed);
  EXPECT_TRUE(mt.processed({1, hostile}));
  EXPECT_EQ(mt.prefix(1), 1);
  EXPECT_EQ(mt.history_size(), 2u);
  ASSERT_NE(mt.history().find({1, hostile}), nullptr);
  const auto rsp = served(mt, RecoverRq{0, 1, 1, hostile});
  ASSERT_EQ(rsp.messages.size(), 2u);
  EXPECT_EQ(rsp.messages.back().mid.seq, hostile);
}

}  // namespace
}  // namespace urcgc::core
