#include "baselines/runner.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/assert.hpp"
#include "net/endpoint.hpp"
#include "runtime/clock.hpp"
#include "runtime/socket.hpp"
#include "runtime/threaded.hpp"
#include "sim/simulation.hpp"

namespace urcgc::baselines {

namespace {

constexpr Tick kTicksPerRtd = 20;

/// Backend factory shared by both runners. RoundClock(10) gives the same
/// 20-tick rtd the constant above assumes.
std::unique_ptr<rt::Runtime> make_runtime(const BaselineConfig& config) {
  const rt::RoundClock clock(kTicksPerRtd / 2);
  if (config.backend == Backend::kThreads) {
    rt::ThreadedConfig tc;
    tc.n = config.n;
    tc.clock = clock;
    tc.tick_duration = std::chrono::nanoseconds(config.thread_tick_ns);
    tc.metrics = config.metrics;
    return std::make_unique<rt::ThreadedRuntime>(tc);
  }
  if (config.backend == Backend::kSocket) {
    rt::SocketConfig sc;
    sc.n = config.n;
    sc.clock = clock;
    sc.tick_duration = std::chrono::nanoseconds(config.thread_tick_ns);
    sc.metrics = config.metrics;
    auto created = rt::SocketRuntime::create(sc);
    URCGC_ASSERT_MSG(created.has_value(),
                     "socket backend: runtime creation failed");
    return std::move(created).value();
  }
  return std::make_unique<sim::Simulation>(clock);
}

/// Per-sender FIFO + set-equality check over survivor logs: the causal
/// order validation both baselines must pass.
bool logs_causally_consistent(
    const std::vector<const std::vector<Mid>*>& logs) {
  if (logs.empty()) return true;
  std::set<Mid> reference(logs.front()->begin(), logs.front()->end());
  for (const auto* log : logs) {
    // FIFO per sender.
    std::map<ProcessId, Seq> last;
    for (const Mid& mid : *log) {
      auto [it, inserted] = last.emplace(mid.origin, mid.seq);
      if (!inserted) {
        if (mid.seq <= it->second) return false;
        it->second = mid.seq;
      }
    }
    if (std::set<Mid>(log->begin(), log->end()) != reference) return false;
  }
  return true;
}

fault::FaultPlan build_plan(const BaselineConfig& config) {
  fault::FaultPlan plan(config.n);
  plan.packet_loss(config.faults.packet_loss);
  for (const auto& [p, at] : config.faults.crashes) plan.crash(p, at);
  return plan;
}

struct DelayLog {
  stats::DelayTracker delays;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
};

/// Mirrors the run's wire-buffer delta into host-shard registry counters,
/// matching what the urcgc harness exports (post-run, host context).
void export_buffer_counters(obs::Registry* metrics,
                            const wire::BufferStats& delta) {
  if (metrics == nullptr) return;
  metrics->add(kNoProcess, metrics->counter("wire.buffer_allocations"),
               delta.allocations);
  metrics->add(kNoProcess, metrics->counter("wire.buffer_bytes_allocated"),
               delta.bytes_allocated);
  metrics->add(kNoProcess, metrics->counter("wire.buffer_bytes_copied"),
               delta.bytes_copied);
}

}  // namespace

BaselineReport run_cbcast(const BaselineConfig& config) {
  const wire::BufferStats buffers_before = wire::buffer_stats();
  std::unique_ptr<rt::Runtime> runtime = make_runtime(config);
  rt::Runtime& rt = *runtime;
  fault::FaultPlan plan = build_plan(config);

  // Figure 5 storm: one ordinary member crash to trigger the flush, then
  // f successive flush coordinators (lowest live ids) die one suspicion
  // period apart, serialising flush restarts.
  Tick first_crash = kNoTick;
  if (config.faults.flush_coordinator_crashes >= 0) {
    const int f = config.faults.flush_coordinator_crashes;
    const Tick t0 = config.faults.storm_start;
    plan.crash(config.n - 1, t0);
    first_crash = t0;
    const Tick suspicion =
        static_cast<Tick>(config.k_attempts) * kTicksPerRtd;
    for (int i = 0; i < f && i < config.n - 2; ++i) {
      plan.crash(i, t0 + suspicion * (i + 1) + kTicksPerRtd / 2);
    }
  }
  for (const auto& [p, at] : config.faults.crashes) {
    first_crash = first_crash == kNoTick ? at : std::min(first_crash, at);
  }

  std::set<ProcessId> crashed;
  for (ProcessId p = 0; p < config.n; ++p) {
    if (plan.per_process[p].crash_at != kNoTick) crashed.insert(p);
  }

  fault::FaultInjector injector(std::move(plan), Rng(config.seed).fork(1));
  net::Network network(rt, injector,
                       {.min_latency = 5,
                        .max_latency = 9,
                        .metrics = config.metrics},
                       Rng(config.seed).fork(2));

  // On the threaded backend observer callbacks arrive concurrently from
  // every process thread; the mutex serialises the shared structures.
  struct Recorder : CbcastObserver {
    std::mutex mu;
    DelayLog log;
    stats::TrafficAccountant traffic;
    std::map<ProcessId, Tick> settled_at;  // view excludes all crashed
    const std::set<ProcessId>* crashed = nullptr;
    int n = 0;
    std::vector<const CbcastProcess*> procs;

    void on_generated(ProcessId, const Mid& mid, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      log.delays.on_generated(mid, at);
      ++log.generated;
    }
    void on_delivered(ProcessId p, const Mid& mid, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      log.delays.on_processed(mid, p, at);
      ++log.delivered;
    }
    void on_sent(ProcessId, stats::MsgClass cls, std::size_t bytes,
                 Tick) override {
      std::lock_guard<std::mutex> lk(mu);
      traffic.record(cls, bytes);
    }
    void on_view_installed(ProcessId p, int, int, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      if (crashed->empty() || settled_at.contains(p)) return;
      // Reading p's own member view from p's execution context is safe.
      const auto& members = procs[p]->members();
      const bool all_excluded =
          std::all_of(crashed->begin(), crashed->end(),
                      [&](ProcessId c) { return !members[c]; });
      if (all_excluded) settled_at[p] = at;
    }
  } recorder;
  recorder.crashed = &crashed;
  recorder.n = config.n;
  recorder.log.delays.bind(config.metrics);
  recorder.traffic.bind(config.metrics);

  CbcastConfig node_config;
  node_config.n = config.n;
  node_config.k_attempts = config.k_attempts;
  node_config.payload_bytes = config.workload.payload_bytes;

  std::vector<std::unique_ptr<net::TransportEndpoint>> endpoints;
  std::vector<std::unique_ptr<CbcastProcess>> processes;
  for (ProcessId p = 0; p < config.n; ++p) {
    endpoints.push_back(std::make_unique<net::TransportEndpoint>(
        network, p,
        net::TransportConfig{.max_retries = 3, .retry_interval = 20}));
    processes.push_back(std::make_unique<CbcastProcess>(
        node_config, p, rt, *endpoints.back(), injector, &recorder));
  }
  for (const auto& process : processes) recorder.procs.push_back(process.get());
  for (auto& process : processes) process->start();

  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&](ProcessId p, std::vector<std::uint8_t> payload,
                     std::vector<Mid>) {
    return processes[p]->data_rq(std::move(payload));
  };
  hooks.active = [&](ProcessId p) {
    return !processes[p]->halted() && !processes[p]->flushing();
  };
  hooks.pending = [&](ProcessId p) {
    return static_cast<std::int64_t>(processes[p]->pending_user_messages());
  };
  workload::LoadGenerator load(config.n, config.workload, std::move(hooks),
                               Rng(config.seed).fork(3));
  rt.on_round([&](RoundId round) { load.on_round(round); });

  const auto limit = static_cast<Tick>(config.limit_rtd * kTicksPerRtd);
  Tick stopped_at = rt.run_until_quiescent(limit, [&] {
    if (!load.exhausted()) return false;
    for (const auto& process : processes) {
      if (process->halted()) continue;
      if (process->flushing()) return false;
      if (process->pending_user_messages() > 0) return false;
      if (process->holdback_size() > 0) return false;
      if (!crashed.empty() &&
          !recorder.settled_at.contains(process->id())) {
        return false;
      }
    }
    return true;
  });
  // Grace for trailing stability traffic.
  stopped_at = rt.run_until(std::min(limit, stopped_at + 6 * kTicksPerRtd));

  BaselineReport report;
  report.submitted = load.submitted();
  report.generated = recorder.log.generated;
  report.delivered_events = recorder.log.delivered;
  auto delays = recorder.log.delays.delays_ticks();
  for (double& d : delays) d /= kTicksPerRtd;
  report.delay_rtd = stats::summarize(delays);
  report.traffic = recorder.traffic;
  // Transport-level acknowledgements and retransmissions are produced
  // inside the endpoints; fold them into the accountant (ack frame = 9 B).
  for (const auto& endpoint : endpoints) {
    const auto& ts = endpoint->stats();
    for (std::uint64_t i = 0; i < ts.acks_sent; ++i) {
      report.traffic.record(stats::MsgClass::kTransportAck, 9);
    }
  }

  std::vector<const std::vector<Mid>*> survivor_logs;
  Tick blocked_max = 0;
  Tick settle_max = kNoTick;
  for (const auto& process : processes) {
    if (process->halted()) continue;
    ++report.survivors;
    survivor_logs.push_back(&process->delivery_log());
    blocked_max = std::max(blocked_max, process->blocked_ticks());
    auto it = recorder.settled_at.find(process->id());
    if (it != recorder.settled_at.end()) {
      settle_max = std::max(settle_max, it->second);
    } else if (!crashed.empty()) {
      settle_max = kNoTick;  // some survivor never settled
    }
  }
  report.blocked_rtd =
      static_cast<double>(blocked_max) / static_cast<double>(kTicksPerRtd);
  if (!crashed.empty() && settle_max != kNoTick && first_crash != kNoTick) {
    report.view_change_rtd =
        static_cast<double>(settle_max - first_crash) / kTicksPerRtd;
  }
  report.causal_order_ok = logs_causally_consistent(survivor_logs);
  report.end_rtd = static_cast<double>(stopped_at) / kTicksPerRtd;
  report.buffers = wire::buffer_stats() - buffers_before;
  export_buffer_counters(config.metrics, report.buffers);
  return report;
}

BaselineReport run_psync(const BaselineConfig& config) {
  const wire::BufferStats buffers_before = wire::buffer_stats();
  std::unique_ptr<rt::Runtime> runtime = make_runtime(config);
  rt::Runtime& rt = *runtime;
  fault::FaultPlan plan = build_plan(config);
  Tick first_crash = kNoTick;
  for (const auto& [p, at] : config.faults.crashes) {
    first_crash = first_crash == kNoTick ? at : std::min(first_crash, at);
  }
  std::set<ProcessId> crashed;
  for (ProcessId p = 0; p < config.n; ++p) {
    if (plan.per_process[p].crash_at != kNoTick) crashed.insert(p);
  }

  fault::FaultInjector injector(std::move(plan), Rng(config.seed).fork(4));
  net::Network network(rt, injector,
                       {.min_latency = 5,
                        .max_latency = 9,
                        .metrics = config.metrics},
                       Rng(config.seed).fork(5));

  struct Recorder : PsyncObserver {
    std::mutex mu;
    DelayLog log;
    stats::TrafficAccountant traffic;
    std::map<ProcessId, Tick> settled_at;
    void on_generated(ProcessId, const Mid& mid, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      log.delays.on_generated(mid, at);
      ++log.generated;
    }
    void on_delivered(ProcessId p, const Mid& mid, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      log.delays.on_processed(mid, p, at);
      ++log.delivered;
    }
    void on_sent(ProcessId, stats::MsgClass cls, std::size_t bytes,
                 Tick) override {
      std::lock_guard<std::mutex> lk(mu);
      traffic.record(cls, bytes);
    }
    void on_mask_out(ProcessId p, ProcessId, Tick at) override {
      std::lock_guard<std::mutex> lk(mu);
      settled_at.emplace(p, at);
    }
  } recorder;
  recorder.log.delays.bind(config.metrics);
  recorder.traffic.bind(config.metrics);

  PsyncConfig node_config;
  node_config.n = config.n;
  node_config.k_attempts = config.k_attempts;
  node_config.payload_bytes = config.workload.payload_bytes;
  node_config.waiting_bound = config.psync_waiting_bound;

  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<PsyncProcess>> processes;
  for (ProcessId p = 0; p < config.n; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    processes.push_back(std::make_unique<PsyncProcess>(
        node_config, p, rt, *endpoints.back(), injector, &recorder));
  }
  for (auto& process : processes) process->start();

  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&](ProcessId p, std::vector<std::uint8_t> payload,
                     std::vector<Mid>) {
    return processes[p]->data_rq(std::move(payload));
  };
  hooks.active = [&](ProcessId p) {
    return !processes[p]->halted() && !processes[p]->masking();
  };
  hooks.pending = [&](ProcessId p) {
    return static_cast<std::int64_t>(processes[p]->pending_user_messages());
  };
  workload::LoadGenerator load(config.n, config.workload, std::move(hooks),
                               Rng(config.seed).fork(6));
  rt.on_round([&](RoundId round) { load.on_round(round); });

  const auto limit = static_cast<Tick>(config.limit_rtd * kTicksPerRtd);
  Tick stopped_at = rt.run_until_quiescent(limit, [&] {
    if (!load.exhausted()) return false;
    for (const auto& process : processes) {
      if (process->halted()) continue;
      if (process->masking()) return false;
      if (process->pending_user_messages() > 0) return false;
      if (process->waiting_size() > 0) return false;
    }
    return true;
  });
  stopped_at = rt.run_until(std::min(limit, stopped_at + 6 * kTicksPerRtd));

  BaselineReport report;
  report.submitted = load.submitted();
  report.generated = recorder.log.generated;
  report.delivered_events = recorder.log.delivered;
  auto delays = recorder.log.delays.delays_ticks();
  for (double& d : delays) d /= kTicksPerRtd;
  report.delay_rtd = stats::summarize(delays);
  report.traffic = recorder.traffic;

  std::vector<const std::vector<Mid>*> survivor_logs;
  Tick blocked_max = 0;
  Tick settle_max = kNoTick;
  bool all_settled = true;
  for (const auto& process : processes) {
    if (process->halted()) continue;
    ++report.survivors;
    survivor_logs.push_back(&process->delivery_log());
    blocked_max = std::max(blocked_max, process->blocked_ticks());
    report.flow_drops += process->flow_drops();
    auto it = recorder.settled_at.find(process->id());
    if (it != recorder.settled_at.end()) {
      settle_max = std::max(settle_max, it->second);
    } else {
      all_settled = false;
    }
  }
  report.blocked_rtd =
      static_cast<double>(blocked_max) / static_cast<double>(kTicksPerRtd);
  if (!crashed.empty() && all_settled && settle_max != kNoTick &&
      first_crash != kNoTick) {
    report.view_change_rtd =
        static_cast<double>(settle_max - first_crash) / kTicksPerRtd;
  }
  report.causal_order_ok = logs_causally_consistent(survivor_logs);
  report.end_rtd = static_cast<double>(stopped_at) / kTicksPerRtd;
  report.buffers = wire::buffer_stats() - buffers_before;
  export_buffer_counters(config.metrics, report.buffers);
  return report;
}

}  // namespace urcgc::baselines
