// SubrunPipeline (the control-plane side of the pipelining refactor,
// DESIGN.md section 10): unit coverage of the awaited/budget/window rules,
// plus whole-system checks that k=1 reduces to the paced seed behavior and
// k>1 keeps every URCGC clause while finishing in fewer subruns.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_guard.hpp"
#include "core/pipeline.hpp"
#include "core/process.hpp"
#include "core/total_order.hpp"
#include "harness/experiment.hpp"
#include "net/endpoint.hpp"
#include "sim/simulation.hpp"

namespace urcgc::core {
namespace {

Request request_from(ProcessId from, SubrunId subrun) {
  Request rq;
  rq.subrun = subrun;
  rq.from = from;
  return rq;
}

TEST(Pipeline, SizedWindowAdmitsWithoutReallocating) {
  // A coordinator sizes its window for the whole view: the group's
  // requests then park without the window growing (and moving every
  // parked Request) step by step.
  SubrunPipeline pipeline(4, 0);
  pipeline.open_window(9, 100);
  std::vector<Request> requests;
  for (ProcessId p = 0; p < 100; ++p) requests.push_back(request_from(p, 9));
  const std::uint64_t before = testsupport::thread_allocations();
  for (Request& rq : requests) {
    ASSERT_EQ(pipeline.admit(std::move(rq)), SubrunPipeline::Admit::kAccepted);
  }
  EXPECT_EQ(testsupport::thread_allocations(), before);
  EXPECT_EQ(pipeline.parked(), 100u);

  // The cap still bounds the reservation.
  SubrunPipeline capped(4, 8);
  capped.open_window(3, 100);
  for (ProcessId p = 0; p < 8; ++p) {
    ASSERT_EQ(capped.admit(request_from(p, 3)),
              SubrunPipeline::Admit::kAccepted);
  }
  EXPECT_EQ(capped.admit(request_from(8, 3)),
            SubrunPipeline::Admit::kOverflow);
}

TEST(Pipeline, AwaitedDecisionTrailsByDepth) {
  SubrunPipeline paced(1, 0);
  SubrunPipeline deep(4, 0);
  EXPECT_EQ(paced.awaited(5), 4);  // the seed rule: await subrun s-1
  EXPECT_EQ(deep.awaited(5), 1);   // k-deep: subruns 2..4 may be in flight
  EXPECT_LT(deep.awaited(2), 0);   // nothing awaited before subrun k
}

TEST(Pipeline, DecisionsInFlightCountsLagAndClamps) {
  SubrunPipeline pipeline(4, 0);
  EXPECT_EQ(pipeline.decisions_in_flight(3, 2), 0);   // fault-free pacing
  EXPECT_EQ(pipeline.decisions_in_flight(3, 0), 2);
  EXPECT_EQ(pipeline.decisions_in_flight(3, -1), 3);  // never decided
  EXPECT_EQ(pipeline.decisions_in_flight(3, 7), 0);   // ahead: clamp at 0
}

TEST(Pipeline, GenerationBudgetCollapsesWhenLagReachesDepth) {
  SubrunPipeline pipeline(4, 0);
  EXPECT_EQ(pipeline.generation_budget(10, 9), 4);  // zero lag: full burst
  EXPECT_EQ(pipeline.generation_budget(10, 6), 4);  // lag 3 < depth
  EXPECT_FALSE(pipeline.stalled(10, 6));
  EXPECT_EQ(pipeline.generation_budget(10, 5), 1);  // lag 4 == depth: stall
  EXPECT_TRUE(pipeline.stalled(10, 5));
}

TEST(Pipeline, DepthOneKeepsSeedPacing) {
  SubrunPipeline pipeline(1, 0);
  for (SubrunId s = 0; s < 6; ++s) {
    EXPECT_EQ(pipeline.awaited(s), s - 1);
    EXPECT_EQ(pipeline.generation_budget(s, s - 1), 1);
    EXPECT_EQ(pipeline.generation_budget(s, -1), 1);  // even fully lagged
    EXPECT_FALSE(pipeline.stalled(s, -1));  // a stall is a k>1 concept
  }
}

TEST(Pipeline, SingleWindowEvictionMatchesSeedInboxReset) {
  SubrunPipeline pipeline(1, 0);
  pipeline.open_window(3);
  EXPECT_EQ(pipeline.admit(request_from(0, 3)), SubrunPipeline::Admit::kAccepted);
  EXPECT_EQ(pipeline.admit(request_from(1, 4)), SubrunPipeline::Admit::kClosed);
  pipeline.open_window(4);  // at k=1 this evicts subrun 3's window
  EXPECT_EQ(pipeline.open_windows(), 1u);
  EXPECT_EQ(pipeline.admit(request_from(2, 3)), SubrunPipeline::Admit::kClosed);
  EXPECT_EQ(pipeline.admit(request_from(2, 4)), SubrunPipeline::Admit::kAccepted);
}

TEST(Pipeline, WindowsSpanDepthAndEvictOnlyBeyondIt) {
  SubrunPipeline pipeline(3, 0);
  pipeline.open_window(5);
  pipeline.open_window(6);
  pipeline.open_window(7);
  EXPECT_EQ(pipeline.open_windows(), 3u);
  // A REQUEST delayed by under k subruns still joins its own window.
  EXPECT_EQ(pipeline.admit(request_from(0, 5)), SubrunPipeline::Admit::kAccepted);
  pipeline.open_window(8);  // evicts subrun 5 (== 8 - depth)
  EXPECT_EQ(pipeline.open_windows(), 3u);
  EXPECT_EQ(pipeline.admit(request_from(1, 5)), SubrunPipeline::Admit::kClosed);
  EXPECT_EQ(pipeline.admit(request_from(1, 6)), SubrunPipeline::Admit::kAccepted);
  EXPECT_EQ(pipeline.parked(), 1u);
}

TEST(Pipeline, AdmitReportsDuplicatesAndOverflow) {
  SubrunPipeline pipeline(2, /*inbox_cap=*/2);
  pipeline.open_window(1);
  EXPECT_EQ(pipeline.admit(request_from(0, 1)), SubrunPipeline::Admit::kAccepted);
  EXPECT_EQ(pipeline.admit(request_from(0, 1)), SubrunPipeline::Admit::kDuplicate);
  EXPECT_EQ(pipeline.admit(request_from(1, 1)), SubrunPipeline::Admit::kAccepted);
  EXPECT_EQ(pipeline.admit(request_from(2, 1)), SubrunPipeline::Admit::kOverflow);
  EXPECT_EQ(pipeline.window_peak(), 2u);
}

TEST(Pipeline, TakeWindowConsumesAndClosesForGood) {
  SubrunPipeline pipeline(2, 0);
  pipeline.open_window(2);
  EXPECT_EQ(pipeline.admit(request_from(0, 2)), SubrunPipeline::Admit::kAccepted);
  EXPECT_EQ(pipeline.admit(request_from(1, 2)), SubrunPipeline::Admit::kAccepted);
  const auto requests = pipeline.take_window(2);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(pipeline.open_windows(), 0u);
  EXPECT_TRUE(pipeline.take_window(2).empty());
  // A straggler after the coordinator consumed the quorum stays out.
  EXPECT_EQ(pipeline.admit(request_from(2, 2)), SubrunPipeline::Admit::kClosed);
}

// ---- whole-system behavior through the experiment harness ----

harness::ExperimentConfig pipelined_config(int k, std::uint64_t seed = 21) {
  harness::ExperimentConfig config;
  config.protocol.n = 6;
  config.protocol.max_subruns_in_flight = k;
  config.workload.load = 1.0;
  config.workload.burst = k;
  config.workload.total_messages = 96;
  config.workload.cross_dep_prob = 0.2;
  config.limit_rtd = 2000;
  config.seed = seed;
  return config;
}

struct PipelineTotals {
  std::uint64_t eager = 0;
  std::uint64_t stalls = 0;
  std::uint64_t in_flight = 0;
};

PipelineTotals pipeline_totals(const harness::ExperimentReport& report) {
  PipelineTotals t;
  for (const auto& p : report.processes) {
    t.eager += p.pipeline_eager_deliveries;
    t.stalls += p.pipeline_stall_rounds;
    t.in_flight += p.pipeline_subruns_in_flight;
  }
  return t;
}

TEST(Pipeline, DepthOneFaultFreeKeepsPipelineCountersZero) {
  // At k=1 the refactored path must be indistinguishable from the paced
  // seed: no eager deliveries ahead of the decision lag, no stalls, no
  // decisions in flight — the pipelining machinery is provably dormant.
  const auto report = harness::Experiment(pipelined_config(1)).run();
  EXPECT_TRUE(report.all_ok());
  EXPECT_TRUE(report.workload_exhausted);
  const PipelineTotals totals = pipeline_totals(report);
  EXPECT_EQ(totals.eager, 0u);
  EXPECT_EQ(totals.stalls, 0u);
  EXPECT_EQ(totals.in_flight, 0u);
}

TEST(Pipeline, DepthOneMatchesPacedSeedOnBothBackends) {
  // Same seed, sim vs free-running threads at k=1: both reduce to the
  // paced seed schedule — full load generated and processed everywhere,
  // every clause green.
  auto config = pipelined_config(1, 42);
  const auto sim_report = harness::Experiment(config).run();

  config.backend = harness::Backend::kThreads;
  config.thread_tick_ns = 0;
  const auto thr_report = harness::Experiment(config).run();

  for (const auto* report : {&sim_report, &thr_report}) {
    EXPECT_TRUE(report->all_ok());
    EXPECT_TRUE(report->workload_exhausted);
    EXPECT_EQ(report->generated, 96u);
    EXPECT_EQ(report->processed_events, 96u * 6);
    // A stall is a k>1 concept; at depth 1 it can never fire.
    EXPECT_EQ(pipeline_totals(*report).stalls, 0u);
  }
  // On the deterministic simulator decisions land exactly on the paced
  // cadence, so the eager-delivery counter stays dormant. (Free-running
  // threads may legitimately see transient decision lag: round-boundary
  // task draining can push a DECISION past the next subrun entry, which
  // is the same timing the seed paced path had — the counter just makes
  // it visible now.)
  EXPECT_EQ(pipeline_totals(sim_report).eager, 0u);
  EXPECT_EQ(pipeline_totals(sim_report).in_flight, 0u);
}

TEST(Pipeline, DepthFourDeliversEagerlyAndFinishesSooner) {
  const auto paced = harness::Experiment(pipelined_config(1)).run();
  const auto pipelined = harness::Experiment(pipelined_config(4)).run();

  for (const auto* report : {&paced, &pipelined}) {
    EXPECT_TRUE(report->all_ok()) << (report->violations.empty()
                                          ? ""
                                          : report->violations.front());
    EXPECT_TRUE(report->workload_exhausted);
    EXPECT_EQ(report->generated, 96u);
    EXPECT_EQ(report->processed_events, 96u * 6);
  }
  // Four subruns in flight: the generation budget drains the same offered
  // load in a quarter of the rounds (measured: 15.9 -> 9.9 rtd end-to-end
  // with the fixed drain tail included), with fewer REQUEST/DECISION
  // exchanges carrying it and a correspondingly larger in-transit history
  // (the bandwidth-delay product of the deeper pipeline).
  EXPECT_LT(pipelined.end_rtd + 4.0, paced.end_rtd);
  EXPECT_LT(pipelined.traffic.count(stats::MsgClass::kRequest),
            paced.traffic.count(stats::MsgClass::kRequest));
  EXPECT_LT(pipelined.traffic.count(stats::MsgClass::kDecision),
            paced.traffic.count(stats::MsgClass::kDecision));
}

TEST(Pipeline, ThreadedMailboxesCarryDepthFour) {
  // The round-parity mailboxes must carry the pipelined workload to the
  // expected totals with every clause green (CI also runs this under TSan).
  auto config = pipelined_config(4, 33);
  config.backend = harness::Backend::kThreads;
  config.thread_tick_ns = 0;
  const auto report = harness::Experiment(config).run();
  EXPECT_TRUE(report.all_ok());
  EXPECT_TRUE(report.workload_exhausted);
  EXPECT_EQ(report.generated, 96u);
  EXPECT_EQ(report.processed_events, 96u * 6);
}

TEST(Pipeline, TotalOrderAgreesAtDepthFour) {
  // The urgc-companion total order must linearize identically at every
  // member even when four subruns of decisions are in flight.
  Config config;
  config.n = 4;
  config.max_subruns_in_flight = 4;
  config.track_stability_boundaries = true;

  sim::Simulation sim;
  fault::FaultInjector injector(fault::FaultPlan(config.n), Rng(111));
  net::Network network(sim, injector, {.min_latency = 5, .max_latency = 9},
                       Rng(112));
  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<UrcgcProcess>> processes;
  std::vector<std::unique_ptr<TotalOrderAdapter>> adapters;
  for (ProcessId p = 0; p < config.n; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    processes.push_back(std::make_unique<UrcgcProcess>(
        config, p, sim, *endpoints.back(), injector));
    adapters.push_back(std::make_unique<TotalOrderAdapter>(*processes.back()));
    processes.back()->start();
  }
  for (ProcessId p = 0; p < config.n; ++p) {
    processes[p]->data_rq({7});
    processes[p]->data_rq({8});
  }
  sim.run_until(sim.now() + 10 * sim.clock().ticks_per_subrun());

  const std::vector<Mid>* reference = nullptr;
  for (ProcessId p = 0; p < config.n; ++p) {
    EXPECT_FALSE(adapters[p]->broken()) << "p" << p;
    const auto& log = adapters[p]->total_log();
    EXPECT_EQ(log.size(), 8u) << "p" << p;
    if (reference == nullptr) {
      reference = &log;
      continue;
    }
    EXPECT_EQ(log, *reference) << "total order diverges on p" << p;
  }
}

}  // namespace
}  // namespace urcgc::core
