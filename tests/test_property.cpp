// Property-style parameterized sweeps: the URCGC clauses must hold for
// every (seed, n, K, fault mix) combination, not just hand-picked
// scenarios. Each parameter point is a full protocol run.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "check/oracle.hpp"
#include "harness/experiment.hpp"
#include "trace/trace.hpp"

namespace urcgc::harness {
namespace {

struct SweepParam {
  std::uint64_t seed;
  int n;
  int k;
  double omission;
  double packet_loss;
  int crashes;
  double load;
};

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string name = "seed" + std::to_string(p.seed) + "_n" +
                     std::to_string(p.n) + "_k" + std::to_string(p.k);
  name += "_om" + std::to_string(static_cast<int>(p.omission * 10000));
  name += "_pl" + std::to_string(static_cast<int>(p.packet_loss * 10000));
  name += "_cr" + std::to_string(p.crashes);
  name += "_ld" + std::to_string(static_cast<int>(p.load * 100));
  return name;
}

class UrcgcSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(UrcgcSweep, ClausesHold) {
  const SweepParam& p = GetParam();
  ExperimentConfig config;
  config.protocol.n = p.n;
  config.protocol.k_attempts = p.k;
  config.workload.load = p.load;
  config.workload.total_messages = 10 * p.n;
  config.workload.cross_dep_prob = 0.35;
  config.faults.omission_prob = p.omission;
  config.faults.packet_loss = p.packet_loss;
  config.seed = p.seed;
  config.limit_rtd = 4000;
  // Spread crashes through the early run, never the whole group.
  for (int c = 0; c < p.crashes && c < p.n - 1; ++c) {
    config.faults.crashes.push_back(
        {static_cast<ProcessId>(p.n - 1 - c), 150 + 130 * c});
  }

  // Every sweep point routes through the trace oracle too: the same run
  // must satisfy the event-by-event clauses, not just the end state.
  trace::TraceRecorder recorder(
      {trace::EventKind::kGenerated, trace::EventKind::kProcessed,
       trace::EventKind::kDecision, trace::EventKind::kHalt});
  config.extra_observer = &recorder;

  ExperimentReport report = Experiment(config).run();

  EXPECT_TRUE(report.quiescent) << "did not reach quiescence";
  EXPECT_TRUE(report.atomicity_ok);
  EXPECT_TRUE(report.ordering_ok);
  EXPECT_TRUE(report.acyclic_ok);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << violation;
  }

  check::OracleOptions oracle;
  oracle.n = p.n;
  oracle.require_final_agreement = report.quiescent;
  const check::OracleReport trace_verdict =
      check::check_trace(recorder.events(), oracle);
  EXPECT_TRUE(trace_verdict.ok())
      << (trace_verdict.first() != nullptr ? trace_verdict.first()->message
                                           : std::string{});

  // No survivor processed anything twice (log sizes match set sizes is
  // enforced inside; here: every survivor's processed count equals the
  // uniform per-survivor event share).
  if (!report.processes.empty()) {
    std::size_t reference = 0;
    bool have_reference = false;
    for (const auto& process : report.processes) {
      if (process.halted) continue;
      if (!have_reference) {
        reference = process.processed;
        have_reference = true;
      } else {
        EXPECT_EQ(process.processed, reference);
      }
      EXPECT_EQ(process.waiting, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReliableSweep, UrcgcSweep,
    testing::Values(SweepParam{1, 3, 3, 0, 0, 0, 0.4},
                    SweepParam{2, 5, 3, 0, 0, 0, 0.7},
                    SweepParam{3, 8, 3, 0, 0, 0, 1.0},
                    SweepParam{4, 12, 2, 0, 0, 0, 0.5},
                    SweepParam{5, 20, 4, 0, 0, 0, 0.3}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    OmissionSweep, UrcgcSweep,
    testing::Values(SweepParam{11, 5, 3, 1.0 / 500, 0, 0, 0.5},
                    SweepParam{12, 5, 3, 1.0 / 100, 0, 0, 0.5},
                    SweepParam{13, 8, 3, 1.0 / 100, 0, 0, 0.8},
                    SweepParam{14, 6, 4, 1.0 / 50, 0, 0, 0.4},
                    SweepParam{15, 10, 3, 1.0 / 200, 0, 0, 0.6},
                    SweepParam{16, 4, 2, 1.0 / 100, 0, 0, 0.9}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    PacketLossSweep, UrcgcSweep,
    testing::Values(SweepParam{21, 5, 3, 0, 0.01, 0, 0.5},
                    SweepParam{22, 8, 3, 0, 0.03, 0, 0.5},
                    SweepParam{23, 6, 4, 0, 0.05, 0, 0.4}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    CrashSweep, UrcgcSweep,
    testing::Values(SweepParam{31, 5, 3, 0, 0, 1, 0.5},
                    SweepParam{32, 6, 3, 0, 0, 2, 0.5},
                    SweepParam{33, 8, 2, 0, 0, 3, 0.6},
                    SweepParam{34, 10, 3, 0, 0, 4, 0.4},
                    SweepParam{35, 4, 3, 0, 0, 1, 1.0}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    GeneralOmissionSweep, UrcgcSweep,
    testing::Values(SweepParam{41, 6, 3, 1.0 / 500, 0, 1, 0.5},
                    SweepParam{42, 8, 3, 1.0 / 200, 0.01, 1, 0.5},
                    SweepParam{43, 10, 4, 1.0 / 100, 0, 2, 0.4},
                    SweepParam{44, 5, 3, 1.0 / 100, 0.02, 1, 0.7},
                    SweepParam{45, 12, 3, 1.0 / 300, 0, 3, 0.3}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    SeedRobustness, UrcgcSweep,
    testing::Values(SweepParam{101, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{102, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{103, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{104, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{105, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{106, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{107, 6, 3, 1.0 / 150, 0, 1, 0.5},
                    SweepParam{108, 6, 3, 1.0 / 150, 0, 1, 0.5}),
    param_name);

// ---- Feature-dimension sweeps: the clauses must also hold with the
// transport mount, the non-peer group structures, each causality mode and
// boundary tracking enabled. ----

struct FeatureParam {
  const char* name;
  bool use_transport;
  core::GroupStructure structure;
  int server_count;
  core::CausalityMode causality;
  bool total_order;
  double omission;
  double packet_loss;
};

// Without this, gtest prints the parameter as raw bytes, which include the
// `name` pointer and struct padding: the listed test names would then change
// from one process to the next.
void PrintTo(const FeatureParam& p, std::ostream* os) { *os << p.name; }

class FeatureSweep : public testing::TestWithParam<FeatureParam> {};

TEST_P(FeatureSweep, ClausesHold) {
  const FeatureParam& p = GetParam();
  ExperimentConfig config;
  config.protocol.n = 8;
  config.protocol.structure = p.structure;
  config.protocol.server_count = p.server_count;
  config.protocol.causality = p.causality;
  config.protocol.track_stability_boundaries = p.total_order;
  config.workload.load = 0.6;
  config.workload.total_messages = 80;
  config.faults.omission_prob = p.omission;
  config.faults.packet_loss = p.packet_loss;
  config.use_transport = p.use_transport;
  config.transport.h_all_on_broadcast = true;
  config.seed = 77;
  config.limit_rtd = 4000;

  trace::TraceRecorder recorder(
      {trace::EventKind::kGenerated, trace::EventKind::kProcessed,
       trace::EventKind::kDecision, trace::EventKind::kHalt});
  config.extra_observer = &recorder;

  ExperimentReport report = Experiment(config).run();
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.atomicity_ok);
  EXPECT_TRUE(report.ordering_ok);
  EXPECT_TRUE(report.acyclic_ok);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << violation;
  }

  check::OracleOptions oracle;
  oracle.n = config.protocol.n;
  oracle.require_final_agreement = report.quiescent;
  const check::OracleReport trace_verdict =
      check::check_trace(recorder.events(), oracle);
  EXPECT_TRUE(trace_verdict.ok())
      << (trace_verdict.first() != nullptr ? trace_verdict.first()->message
                                           : std::string{});
}

INSTANTIATE_TEST_SUITE_P(
    Features, FeatureSweep,
    testing::Values(
        FeatureParam{"transport_lossy", true, core::GroupStructure::kPeer, 0,
                     core::CausalityMode::kIntermediate, false, 0, 0.03},
        FeatureParam{"transport_omission", true, core::GroupStructure::kPeer,
                     0, core::CausalityMode::kIntermediate, false, 0.005, 0},
        FeatureParam{"diffusion", false, core::GroupStructure::kDiffusion, 3,
                     core::CausalityMode::kIntermediate, false, 0.005, 0},
        FeatureParam{"client_server", false,
                     core::GroupStructure::kClientServer, 2,
                     core::CausalityMode::kIntermediate, false, 0.005, 0},
        FeatureParam{"general_lossy", false, core::GroupStructure::kPeer, 0,
                     core::CausalityMode::kGeneral, false, 0.005, 0.01},
        FeatureParam{"temporal_lossy", false, core::GroupStructure::kPeer, 0,
                     core::CausalityMode::kTemporal, false, 0.005, 0.01},
        FeatureParam{"boundaries_on", false, core::GroupStructure::kPeer, 0,
                     core::CausalityMode::kIntermediate, true, 0.005, 0}),
    [](const auto& p) { return std::string(p.param.name); });

/// Bounded-cleaning property (paper Section 4): under crash-only faults the
/// group reaches a full-group stability decision within 2K+f subruns of the
/// crash.
class CleaningBound : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CleaningBound, WithinTwoKPlusF) {
  const int k = std::get<0>(GetParam());
  const int f = std::get<1>(GetParam());
  ExperimentConfig config;
  config.protocol.n = 9;
  config.protocol.k_attempts = k;
  config.workload.load = 0.4;
  config.workload.total_messages = 150;
  config.faults.coordinator_crashes = f;
  config.faults.coordinator_crash_start = 2;
  config.seed = 97;
  config.limit_rtd = 4000;

  ExperimentReport report = Experiment(config).run();
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.atomicity_ok);

  std::vector<ProcessId> crashed;
  Tick first_crash = 0;
  for (const auto& halt : report.halts) {
    crashed.push_back(halt.p);
    first_crash = first_crash == 0 ? halt.at : std::min(first_crash, halt.at);
  }
  ASSERT_EQ(static_cast<int>(crashed.size()), f);
  const double t = report.recovery_time_rtd(crashed, first_crash, 20);
  ASSERT_GE(t, 0.0);
  EXPECT_LE(t, 2.0 * k + f + 1.0);  // paper bound + broadcast slack
}

INSTANTIATE_TEST_SUITE_P(KAndF, CleaningBound,
                         testing::Combine(testing::Values(2, 3, 4),
                                          testing::Values(1, 2, 3)),
                         [](const auto& p) {
                           return "K" +
                                  std::to_string(std::get<0>(p.param)) +
                                  "_f" +
                                  std::to_string(std::get<1>(p.param));
                         });

}  // namespace
}  // namespace urcgc::harness
