#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "runtime/threaded.hpp"
#include "sim/simulation.hpp"

namespace urcgc::rt {
namespace {

ThreadedConfig free_running(int n, Tick round_ticks = 10) {
  ThreadedConfig config;
  config.n = n;
  config.clock = RoundClock(round_ticks);
  config.tick_duration = std::chrono::nanoseconds(0);
  return config;
}

TEST(ThreadedRuntime, RoundHandlersObserveMonotoneRounds) {
  ThreadedRuntime rt(free_running(3));
  // Each vector is touched only by its owner's thread; the run_until
  // barrier orders the final reads.
  std::vector<std::vector<RoundId>> seen(3);
  for (ProcessId p = 0; p < 3; ++p) {
    rt.on_round(p, [&seen, p](RoundId r) { seen[p].push_back(r); });
  }
  rt.run_until(99);
  std::vector<RoundId> expected;
  for (RoundId r = 0; r <= 9; ++r) expected.push_back(r);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(seen[p], expected) << "p" << p;
  EXPECT_EQ(rt.rounds_run(), 10);
}

TEST(ThreadedRuntime, NowMatchesRoundStartInsideHandlers) {
  ThreadedRuntime rt(free_running(2));
  std::vector<Tick> at;
  rt.on_round(0, [&](RoundId) { at.push_back(rt.now()); });
  rt.run_until(45);
  EXPECT_EQ(at, (std::vector<Tick>{0, 10, 20, 30, 40}));
}

TEST(ThreadedRuntime, PostedTaskRunsBeforeNextRoundHandler) {
  // A task posted during round r with sub-round delay reaches its owner
  // before the owner's round r+1 handler — the simulator's "arrives before
  // the next boundary" guarantee.
  ThreadedRuntime rt(free_running(2));
  std::vector<std::pair<char, RoundId>> log;  // owned by context 1
  rt.on_round(0, [&rt, &log](RoundId r) {
    rt.post(1, /*delay=*/5, [&log, r] { log.push_back({'t', r}); });
  });
  rt.on_round(1, [&log](RoundId r) { log.push_back({'h', r}); });
  rt.run_until(59);
  // For every round r, the datagram sent in round r ('t', r) must appear
  // before the handler of round r+1 ('h', r+1).
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].first != 't') continue;
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[j].first == 'h') {
        EXPECT_GT(log[j].second, log[i].second)
            << "task of round " << log[i].second << " ran after handler of "
            << log[j].second;
        break;
      }
    }
  }
  // Every round's task arrived.
  int tasks = 0;
  for (const auto& entry : log) tasks += entry.first == 't' ? 1 : 0;
  EXPECT_EQ(tasks, 5);
}

TEST(ThreadedRuntime, DelayedPostDefersToDueRound) {
  ThreadedRuntime rt(free_running(1));
  Tick ran_at = -1;
  rt.post(0, /*delay=*/25, [&] { ran_at = rt.now(); });
  rt.run_until(99);
  // Due tick 25 falls inside round 2; the owner first drains at a boundary
  // >= 25, which is round 3 (tick 30).
  EXPECT_EQ(ran_at, 30);
}

TEST(ThreadedRuntime, DriverHandlersRunOnHostContext) {
  ThreadedRuntime rt(free_running(2));
  const auto driver_id = std::this_thread::get_id();
  int rounds = 0;
  bool on_driver = true;
  rt.on_round([&](RoundId) {
    ++rounds;
    on_driver = on_driver && std::this_thread::get_id() == driver_id;
  });
  rt.run_until(39);
  EXPECT_EQ(rounds, 4);
  EXPECT_TRUE(on_driver);
}

TEST(ThreadedRuntime, RunUntilQuiescentStopsAtPredicate) {
  ThreadedRuntime rt(free_running(2));
  std::atomic<int> rounds{0};
  rt.on_round(0, [&](RoundId) { rounds.fetch_add(1); });
  const Tick stopped =
      rt.run_until_quiescent(10'000, [&] { return rounds.load() >= 4; });
  // The predicate is checked at round boundaries; the run must stop well
  // short of the limit.
  EXPECT_GE(rounds.load(), 4);
  EXPECT_LE(rounds.load(), 5);
  EXPECT_LT(stopped, 10'000);
}

TEST(ThreadedRuntime, CrossContextPostsAllArrive) {
  constexpr int kN = 4;
  ThreadedRuntime rt(free_running(kN));
  std::vector<int> received(kN, 0);  // each slot touched only by its owner
  for (ProcessId p = 0; p < kN; ++p) {
    rt.on_round(p, [&rt, &received, p](RoundId) {
      for (ProcessId q = 0; q < kN; ++q) {
        if (q == p) continue;
        rt.post(q, /*delay=*/3, [&received, q] { ++received[q]; });
      }
    });
  }
  rt.run_until(99);  // 10 rounds; round 9's posts are still in flight
  int total = 0;
  for (int count : received) total += count;
  // A cross-context post of round r is collected at the first drain of
  // round r+1, never earlier: exactly the posts of rounds 0..8 ran, 9
  // rounds x n x (n-1) messages.
  EXPECT_EQ(total, 9 * kN * (kN - 1));
}

TEST(ThreadedRuntime, ShutdownIsIdempotent) {
  auto rt = std::make_unique<ThreadedRuntime>(free_running(3));
  rt->on_round(0, [](RoundId) {});
  rt->run_until(19);
  rt->shutdown();
  rt->shutdown();  // second call is a no-op
  rt.reset();      // destructor after explicit shutdown is fine too
  SUCCEED();
}

TEST(ThreadedRuntime, ShutdownCountsUndrainedTasks) {
  // Regression for the mailbox lifecycle contract: tasks still pending
  // when shutdown() joins the workers are discarded, never executed, and
  // the loss is visible through discarded_on_shutdown() and the
  // `runtime.mailbox_discarded` counter. The count covers every place a
  // task can wait: a pending list, a worker's round buffer and the
  // driver's `host` buffer.
  obs::Registry registry(2);
  ThreadedConfig config = free_running(2);
  config.metrics = &registry;
  ThreadedRuntime rt(config);
  bool ran = false;
  // Due far past the horizon: collected into pending at round 0, never due.
  for (int i = 0; i < 3; ++i) {
    rt.post(1, /*delay=*/100'000, [&ran] { ran = true; });
  }
  // Posted in round 1, the last round run: never collected.
  rt.on_round(0, [&rt, &ran](RoundId r) {
    if (r == 1) rt.post(1, /*delay=*/0, [&ran] { ran = true; });
  });
  rt.run_until(19);  // rounds 0 and 1
  // Posted by the driver after the last round: left in `host`.
  rt.post(1, /*delay=*/0, [&ran] { ran = true; });
  EXPECT_EQ(rt.discarded_on_shutdown(), 0u) << "before shutdown";
  rt.shutdown();
  EXPECT_FALSE(ran);
  EXPECT_EQ(rt.discarded_on_shutdown(), 5u);
  const obs::Metric m = registry.find("runtime.mailbox_discarded");
  EXPECT_EQ(registry.counter_total(m), 5u);
}

TEST(ThreadedRuntime, WorkerBurstKeepsPerChannelFifo) {
  // A burst far larger than anything a round normally carries: one worker
  // posts 1000 zero-delay tasks to another in round 3. All of them are
  // collected together at the consumer's first drain of round 4 (tick 40)
  // and run in post order.
  constexpr int kBurst = 1000;
  ThreadedRuntime rt(free_running(2));
  std::vector<int> log;        // appended to only by context 1's tasks
  std::vector<Tick> ran_at;    // likewise
  rt.on_round(0, [&rt, &log, &ran_at](RoundId r) {
    if (r != 3) return;
    for (int i = 1; i <= kBurst; ++i) {
      rt.post(1, /*delay=*/0, [&rt, &log, &ran_at, i] {
        log.push_back(i);
        ran_at.push_back(rt.now());
      });
    }
  });
  rt.run_until(49);
  std::vector<int> expected(kBurst);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(log, expected);
  EXPECT_EQ(ran_at, std::vector<Tick>(kBurst, 40));
}

TEST(ThreadedRuntime, ForeignThreadPostWhileWorkersRunDies) {
  // The mailboxes have no lock: the barrier is what separates writers
  // from readers, so only this runtime's workers and the driver (between
  // rounds) may post. A thread that is neither, posting while the workers
  // run, must fail loudly rather than race.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadedRuntime rt(free_running(2));
        rt.on_round(0, [&rt](RoundId r) {
          if (r != 1) return;
          std::thread foreign([&rt] { rt.post(1, 0, [] {}); });
          foreign.join();
        });
        rt.run_until(29);
      },
      "neither a worker nor the driver");
}

TEST(ThreadedRuntime, WallClockPacingRespectsTickDuration) {
  ThreadedConfig config = free_running(1);
  config.tick_duration = std::chrono::microseconds(100);
  ThreadedRuntime rt(config);
  int rounds = 0;
  rt.on_round(0, [&](RoundId) { ++rounds; });
  const auto before = std::chrono::steady_clock::now();
  rt.run_until(49);  // 5 rounds x 10 ticks x 100us = 4ms minimum
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(rounds, 5);
  EXPECT_GE(elapsed, std::chrono::microseconds(4000));
}

TEST(ThreadedRuntime, PacingReanchorsAfterPause) {
  // The wall-clock epoch must be re-anchored at the start of every run
  // call. Anchoring only once meant that after a pause between run calls
  // the schedule was entirely in the past, so the next segment burst
  // through its rounds with no pacing at all.
  ThreadedConfig config = free_running(1);
  config.tick_duration = std::chrono::microseconds(100);
  ThreadedRuntime rt(config);
  rt.on_round(0, [](RoundId) {});
  rt.run_until(49);
  // Driver-side pause far longer than the whole first segment.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto before = std::chrono::steady_clock::now();
  rt.run_until(99);  // 5 more rounds: 4ms minimum under correct pacing
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_GE(elapsed, std::chrono::microseconds(4000));
}

// --- Cross-backend equivalence ---------------------------------------

harness::ExperimentConfig workload_config(int n, std::int64_t messages,
                                          std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.protocol.n = n;
  config.workload.total_messages = messages;
  config.workload.load = 0.5;
  config.workload.cross_dep_prob = 0.3;
  config.seed = seed;
  config.limit_rtd = 2000;
  return config;
}

TEST(CrossBackend, SeededWorkloadPassesOnBothBackends) {
  auto config = workload_config(6, 120, 42);
  const auto sim_report = harness::Experiment(config).run();

  config.backend = harness::Backend::kThreads;
  config.thread_tick_ns = 0;  // free-running: fast and ordering-equivalent
  const auto thr_report = harness::Experiment(config).run();

  config.backend = harness::Backend::kSocket;
  const auto sock_report = harness::Experiment(config).run();

  for (const auto* report : {&sim_report, &thr_report, &sock_report}) {
    EXPECT_TRUE(report->quiescent);
    EXPECT_TRUE(report->workload_exhausted);
    EXPECT_TRUE(report->all_ok()) << report->violations.size()
                                  << " violations";
    // Max network latency (9) is below the round length, so no REQUEST can
    // ever arrive outside its inbox window on either backend — and on the
    // datagram substrate nothing duplicates frames, so the coordinator
    // inbox must never see (let alone merge away) a duplicate REQUEST.
    for (const auto& process : report->processes) {
      EXPECT_EQ(process.requests_dropped, 0u);
      EXPECT_EQ(process.inbox_duplicates, 0u);
      EXPECT_EQ(process.inbox_overflow, 0u);
    }
  }
  // Fault-free: the full offered load is generated and processed
  // everywhere on every backend, whatever the interleaving.
  for (const auto* report : {&sim_report, &thr_report, &sock_report}) {
    EXPECT_EQ(report->generated, 120u);
    EXPECT_EQ(report->processed_events, 120u * 6);
  }
}

TEST(CrossBackend, TenProcessThreadedRunReachesQuiescence) {
  auto config = workload_config(10, 300, 7);
  config.backend = harness::Backend::kThreads;
  config.thread_tick_ns = 0;
  const auto report = harness::Experiment(config).run();
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.all_ok()) << (report.violations.empty()
                                       ? ""
                                       : report.violations.front());
  EXPECT_EQ(report.generated, 300u);
  EXPECT_EQ(report.processed_events, 300u * 10);
}

TEST(CrossBackend, CrashFaultToleratedOnBothBackends) {
  auto config = workload_config(8, 160, 11);
  config.faults.crashes = {{5, 400}};
  const auto sim_report = harness::Experiment(config).run();

  config.backend = harness::Backend::kThreads;
  config.thread_tick_ns = 0;
  const auto thr_report = harness::Experiment(config).run();

  config.backend = harness::Backend::kSocket;
  const auto sock_report = harness::Experiment(config).run();

  for (const auto* report : {&sim_report, &thr_report, &sock_report}) {
    EXPECT_TRUE(report->quiescent);
    EXPECT_TRUE(report->all_ok());
    ASSERT_GE(report->halts.size(), 1u);
    EXPECT_EQ(report->halts.front().p, 5);
  }
}

TEST(CrossBackend, OmissionSchedulePassesOnAllBackends) {
  // Omission draws are made inside net::Network on the sender side, so the
  // same seeded fault schedule drives all three backends — the socket
  // layer only ever moves bytes that survived the draw.
  auto config = workload_config(6, 100, 23);
  config.faults.omission_prob = 0.05;
  config.thread_tick_ns = 0;
  for (auto backend : {harness::Backend::kSim, harness::Backend::kThreads,
                       harness::Backend::kSocket}) {
    config.backend = backend;
    const auto report = harness::Experiment(config).run();
    EXPECT_TRUE(report.quiescent) << "backend " << static_cast<int>(backend);
    EXPECT_TRUE(report.all_ok())
        << "backend " << static_cast<int>(backend) << ": "
        << (report.violations.empty() ? "" : report.violations.front());
    EXPECT_EQ(report.generated, 100u);
    EXPECT_EQ(report.processed_events, 100u * 6);
  }
}

}  // namespace
}  // namespace urcgc::rt
