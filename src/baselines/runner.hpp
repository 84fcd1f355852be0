#pragma once
// Baseline experiment runners: assemble a CBCAST or Psync group over the
// shared runtime/network/fault substrate (deterministic simulator or the
// threaded real-time backend), drive it with the same LoadGenerator as
// urcgc, and report comparable metrics. Used by the Figure 5 / Table 1
// benches, the throughput bench and the baseline integration tests.

#include <cstdint>
#include <vector>

#include "baselines/cbcast.hpp"
#include "baselines/psync.hpp"
#include "obs/registry.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "wire/shared_buffer.hpp"
#include "workload/workload.hpp"

namespace urcgc::baselines {

struct BaselineFaultSpec {
  std::vector<std::pair<ProcessId, Tick>> crashes;
  double packet_loss = 0.0;
  /// Figure 5 storm (-1 = disabled): crash member n-1 at `storm_start` to
  /// trigger a flush, then crash the f lowest-id members one suspicion
  /// period apart — each one exactly the member coordinating the flush —
  /// serialising f flush restarts.
  int flush_coordinator_crashes = -1;
  Tick storm_start = 100;
};

/// Which rt::Runtime implementation drives the run (mirrors
/// harness::Backend; kept separate so baselines stay independent of the
/// harness library).
enum class Backend {
  kSim,      ///< deterministic single-threaded simulator
  kThreads,  ///< one OS thread per process, wall-clock round pacing
  kSocket,   ///< one OS thread + one UDP socket per process over localhost
};

struct BaselineConfig {
  int n = 10;
  int k_attempts = 3;
  workload::WorkloadConfig workload;
  BaselineFaultSpec faults;
  /// Runtime backend. Results on kThreads are not deterministic; the
  /// causal-order validator tolerates reordering by construction.
  Backend backend = Backend::kSim;
  /// Real duration of one tick on the threaded backend (0 = free-running).
  std::int64_t thread_tick_ns = 50'000;
  /// Psync only: waiting-room bound (0 = unbounded); beyond it arriving
  /// undeliverable messages are deleted (Psync's flow control).
  std::size_t psync_waiting_bound = 0;
  double limit_rtd = 2000.0;
  std::uint64_t seed = 1;
  /// Optional observability registry (built for >= n processes): receives
  /// the same traffic counters, delay histogram and network counters the
  /// urcgc harness exports, so baseline runs are comparable in one file.
  obs::Registry* metrics = nullptr;
};

struct BaselineReport {
  std::int64_t submitted = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered_events = 0;
  stats::Summary delay_rtd;
  stats::TrafficAccountant traffic;
  /// Max over survivors of time spent blocked (flush / mask_out), rtd.
  double blocked_rtd = 0.0;
  /// rtd from the first crash until every survivor installed a view (or
  /// finished mask_out) excluding all crashed members; negative if never.
  double view_change_rtd = -1.0;
  int survivors = 0;
  bool causal_order_ok = true;
  std::uint64_t flow_drops = 0;
  /// Total simulated run length, rtd.
  double end_rtd = 0.0;
  /// Wire-buffer accounting delta over this run (see
  /// harness::ExperimentReport::buffers for the semantics).
  wire::BufferStats buffers;
};

[[nodiscard]] BaselineReport run_cbcast(const BaselineConfig& config);
[[nodiscard]] BaselineReport run_psync(const BaselineConfig& config);

}  // namespace urcgc::baselines
