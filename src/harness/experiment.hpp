#pragma once
// Experiment harness: builds a full system (runtime, faulty network, group
// of urcgc processes, workload), runs it to quiescence, validates the
// URCGC correctness clauses over the run, and returns a structured report.
// Every bench and integration test goes through this one entry point.
//
// The runtime backend is selectable: the deterministic simulator (default)
// or the real-time threaded backend, where every process runs on its own
// OS thread and rounds are paced by the wall clock.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/observer.hpp"
#include "core/process.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "wire/shared_buffer.hpp"
#include "workload/workload.hpp"

namespace urcgc::harness {

/// Declarative network partition, in rtd units. Processes in `side_a` are
/// cut off from everyone else during [start_rtd, end_rtd); end_rtd < 0
/// means the partition never heals.
struct PartitionSpec {
  std::vector<ProcessId> side_a;
  double start_rtd = 0.0;
  double end_rtd = -1.0;
};

/// Declarative fault scenario, translated into a fault::FaultPlan.
struct FaultSpec {
  /// Explicit crash schedule.
  std::vector<std::pair<ProcessId, Tick>> crashes;

  /// Network partitions (checked on both the send and the delivery path,
  /// so in-flight packets are severed too).
  std::vector<PartitionSpec> partitions;

  /// Uniform send+receive omission probability on every process.
  double omission_prob = 0.0;

  /// Subnet packet loss probability.
  double packet_loss = 0.0;

  /// Omission fault window in rtd units ([0, open) by default). Figure 6
  /// confines failures to the first 5 rtd.
  double window_start_rtd = 0.0;
  double window_end_rtd = -1.0;  // < 0: open-ended

  /// Crash storm over f consecutive coordinators (Figure 5): coordinator of
  /// subrun (start + i) crashes right at its decision round, before it can
  /// broadcast, for i = 0..f-1.
  int coordinator_crashes = 0;
  SubrunId coordinator_crash_start = 2;
};

/// Which rt::Runtime implementation drives the run.
enum class Backend {
  kSim,      ///< deterministic single-threaded simulator
  kThreads,  ///< one OS thread per process, wall-clock round pacing
  kSocket,   ///< one OS thread + one UDP socket per process over localhost
};

struct ExperimentConfig {
  core::Config protocol;
  workload::WorkloadConfig workload;
  FaultSpec faults;

  /// Dynamic membership: one entry per late joiner, giving the rtd at
  /// which it boots and starts soliciting admission. `protocol.n` is the
  /// founder count; the harness provisions capacity for
  /// `protocol.n + join_rtds.size()` processes and assigns joiner ids
  /// founders, founders+1, ... in list order. Joiners take workload only
  /// after they finish snapshot catch-up and become members.
  std::vector<double> join_rtds;
  /// One hop takes most of a round, so a request+decision exchange fills
  /// the subrun — the paper's "subrun as long as the round trip delay".
  net::NetConfig net{.min_latency = 5, .max_latency = 9};

  /// Mount urcgc on the retransmitting transport of paper Section 5
  /// instead of raw datagrams (h = 1). Moves loss repair from the
  /// history-recovery path down into the transport; the ablation bench
  /// quantifies the trade.
  bool use_transport = false;
  net::TransportConfig transport{.max_retries = 3, .retry_interval = 20};
  Tick round_ticks = 10;

  /// Optional second observer (e.g. a trace::TraceRecorder) that receives
  /// every protocol event alongside the harness's metric recorder.
  core::Observer* extra_observer = nullptr;
  /// Optional observability registry (must outlive the run and be built
  /// for at least `protocol.n` processes). The harness wires it through
  /// every layer — processes, network, runtime, delay/traffic trackers —
  /// and samples per-process gauges (history length, waiting depth,
  /// coordinator inbox size, decision age) at every round boundary.
  obs::Registry* metrics = nullptr;
  /// Hard simulation stop, in rtd (subruns).
  double limit_rtd = 5000.0;
  /// Runtime backend for the run. Results on kThreads are not
  /// deterministic; validators tolerate reordering by construction.
  Backend backend = Backend::kSim;
  /// Real duration of one tick on the threaded backend (0 = free-running).
  std::int64_t thread_tick_ns = 50'000;
  /// Extra subruns executed after first quiescence so stability decisions
  /// and final cleanings settle.
  int grace_subruns = 8;
  std::uint64_t seed = 1;
  /// Same-tick event-order perturbation on the sim backend (see
  /// sim::EventQueue::set_tiebreak_salt); 0 = plain FIFO. Ignored on
  /// kThreads, whose interleaving is inherently scheduler-driven. The
  /// schedule explorer sweeps (seed, schedule_salt) pairs.
  std::uint64_t schedule_salt = 0;
};

struct DecisionEvent {
  SubrunId subrun = 0;
  Tick at = 0;
  ProcessId coordinator = kNoProcess;
  bool full_group = false;
  int alive_count = 0;
  std::vector<bool> alive;
};

struct HaltEvent {
  ProcessId p = kNoProcess;
  core::HaltReason reason = core::HaltReason::kNone;
  Tick at = 0;
};

/// A joiner finished snapshot catch-up and became a full member.
struct JoinEvent {
  ProcessId p = kNoProcess;
  Tick at = 0;
  /// Group-stable per-origin prefix the joiner adopted instead of
  /// replaying history (see MtEntity::adopt_baseline).
  std::vector<Seq> baseline;
};

struct ProcessEndState {
  bool halted = false;
  core::HaltReason reason = core::HaltReason::kNone;
  std::size_t processed = 0;
  std::size_t history = 0;
  std::size_t waiting = 0;
  std::uint64_t flow_blocked_rounds = 0;
  std::uint64_t requests_dropped = 0;
  /// Exact occupancy high-water marks over the whole run — what the
  /// checker's buffer-bounds clause compares against the configured caps.
  std::size_t waiting_peak = 0;
  std::size_t history_peak = 0;
  std::size_t inbox_peak = 0;
  /// Backpressure accounting (see core::UrcgcProcess::Counters).
  std::uint64_t waiting_rejected = 0;
  std::uint64_t inbox_duplicates = 0;
  std::uint64_t inbox_overflow = 0;
  std::uint64_t backpressure_paused_rounds = 0;
  /// Recovery accounting.
  std::uint64_t recoveries_issued = 0;
  std::uint64_t recovery_batches = 0;
  std::uint64_t recovery_msgs = 0;
  std::uint64_t recovery_continuations = 0;
  std::uint64_t recovery_budget_exhausted = 0;
  std::uint64_t recovery_cache_hits = 0;
  /// Pipelining accounting (see core::UrcgcProcess::Counters).
  std::uint64_t pipeline_eager_deliveries = 0;
  std::uint64_t pipeline_stall_rounds = 0;
  std::uint64_t pipeline_subruns_in_flight = 0;
  /// Membership: end-of-run join phase and join accounting.
  core::UrcgcProcess::JoinPhase join_phase =
      core::UrcgcProcess::JoinPhase::kMember;
  std::uint64_t join_requested = 0;
  std::uint64_t join_decided = 0;
  std::uint64_t join_catchup_batches = 0;
  std::uint64_t join_catchup_msgs = 0;
};

struct ExperimentReport {
  // Outcome.
  bool workload_exhausted = false;
  bool quiescent = false;
  Tick end_tick = 0;
  double end_rtd = 0.0;
  std::int64_t submitted = 0;
  std::uint64_t generated = 0;
  std::uint64_t processed_events = 0;
  std::uint64_t discarded = 0;

  // Delay metrics in rtd units (Figure 4).
  stats::Summary delay_rtd;
  stats::Summary completion_rtd;

  // Traffic (Table 1) and substrate accounting.
  stats::TrafficAccountant traffic;
  net::NetStats net_stats;
  fault::FaultCounters fault_counters;
  /// Wire-buffer accounting over this run (delta of the process-global
  /// wire::buffer_stats() across run()). `bytes_allocated` ≈ serialization
  /// cost, `bytes_copied` ≈ post-serialization duplication — zero-copy
  /// fan-out keeps the latter at 0 on the in-memory backends.
  wire::BufferStats buffers;

  // Time series in (rtd, value) — Figure 6.
  stats::TimeSeries history_max;
  stats::TimeSeries history_avg;
  stats::TimeSeries waiting_max;

  std::vector<DecisionEvent> decisions;
  std::vector<HaltEvent> halts;
  std::vector<JoinEvent> joins;
  std::vector<ProcessEndState> processes;

  // URCGC clause validation over the whole run.
  bool atomicity_ok = false;
  bool ordering_ok = false;
  bool acyclic_ok = false;
  std::vector<std::string> violations;

  [[nodiscard]] bool all_ok() const {
    return atomicity_ok && ordering_ok && acyclic_ok;
  }

  /// Recovery/agreement time T (Figure 5): rtd from the first crash until
  /// the first decision that (a) marks every crashed process dead and (b)
  /// carries full_group stability. Negative if not applicable/never.
  [[nodiscard]] double recovery_time_rtd(
      const std::vector<ProcessId>& crashed, Tick first_crash_tick,
      Tick ticks_per_rtd) const;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  [[nodiscard]] ExperimentReport run();

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
};

}  // namespace urcgc::harness
