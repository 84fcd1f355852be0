#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "causal/graph.hpp"
#include "check/clauses.hpp"
#include "common/assert.hpp"
#include "core/process.hpp"
#include "net/endpoint.hpp"
#include "runtime/clock.hpp"
#include "runtime/socket.hpp"
#include "runtime/threaded.hpp"
#include "sim/simulation.hpp"

namespace urcgc::harness {

namespace {

/// Observer that feeds the report's metric structures. On the threaded
/// backend callbacks arrive concurrently from every process thread, so a
/// mutex serialises them (the extra observer is called inside the lock and
/// needs no synchronisation of its own).
class Recorder final : public core::Observer {
 public:
  Recorder(Tick ticks_per_rtd, core::Observer* extra,
           obs::Registry* metrics)
      : ticks_per_rtd_(ticks_per_rtd), extra_(extra) {
    // Dual-write the classic trackers into the registry so exports carry
    // the same traffic/delay data the report does.
    delays_.bind(metrics);
    traffic_.bind(metrics);
  }

  void on_generated(ProcessId p, const core::AppMessage& msg,
                    Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    delays_.on_generated(msg.mid, at);
    graph_.add(msg.mid, msg.deps);
    ++generated_;
    if (extra_ != nullptr) extra_->on_generated(p, msg, at);
  }

  void on_processed(ProcessId p, const core::AppMessage& msg,
                    Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    delays_.on_processed(msg.mid, p, at);
    if (extra_ != nullptr) extra_->on_processed(p, msg, at);
  }

  void on_sent(ProcessId p, stats::MsgClass cls, std::size_t bytes,
               Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    traffic_.record(p, cls, bytes);
    if (extra_ != nullptr) extra_->on_sent(p, cls, bytes, at);
  }

  void on_decision_made(ProcessId coordinator, const core::Decision& d,
                        Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    DecisionEvent event;
    event.subrun = d.decided_at;
    event.at = at;
    event.coordinator = coordinator;
    event.full_group = d.full_group;
    event.alive_count = d.alive_count();
    event.alive = d.alive;
    decisions_.push_back(std::move(event));
    if (extra_ != nullptr) extra_->on_decision_made(coordinator, d, at);
  }

  void on_halt(ProcessId p, core::HaltReason reason, Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    halts_.push_back({p, reason, at});
    if (extra_ != nullptr) extra_->on_halt(p, reason, at);
  }

  void on_discarded(ProcessId p, const Mid& mid, Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++discarded_;
    if (extra_ != nullptr) extra_->on_discarded(p, mid, at);
  }

  void on_history_cleaned(ProcessId p, std::size_t purged,
                          Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (extra_ != nullptr) extra_->on_history_cleaned(p, purged, at);
  }

  void on_recovery_attempt(ProcessId p, ProcessId target, ProcessId origin,
                           Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (extra_ != nullptr) extra_->on_recovery_attempt(p, target, origin, at);
  }

  void on_flow_blocked(ProcessId p, Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (extra_ != nullptr) extra_->on_flow_blocked(p, at);
  }

  void on_request_dropped(ProcessId p, ProcessId from, SubrunId rq_subrun,
                          Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (extra_ != nullptr) {
      extra_->on_request_dropped(p, from, rq_subrun, at);
    }
  }

  void on_joined(ProcessId p, const std::vector<Seq>& baseline,
                 Tick at) override {
    std::lock_guard<std::mutex> lk(mu_);
    joins_.push_back({p, at, baseline});
    if (extra_ != nullptr) extra_->on_joined(p, baseline, at);
  }

  std::mutex mu_;
  stats::DelayTracker delays_;
  stats::TrafficAccountant traffic_;
  causal::CausalGraph graph_;
  std::vector<DecisionEvent> decisions_;
  std::vector<HaltEvent> halts_;
  std::vector<JoinEvent> joins_;
  std::uint64_t generated_ = 0;
  std::uint64_t discarded_ = 0;
  Tick ticks_per_rtd_;
  core::Observer* extra_;
};

stats::Summary to_rtd_summary(std::vector<double> ticks, Tick per_rtd) {
  for (double& v : ticks) v /= static_cast<double>(per_rtd);
  return stats::summarize(ticks);
}

}  // namespace

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  URCGC_ASSERT(config_.protocol.n >= 2);
  URCGC_ASSERT(config_.round_ticks > config_.net.max_latency);
}

ExperimentReport Experiment::run() {
  const wire::BufferStats buffers_before = wire::buffer_stats();
  // `n` founders boot as members; joiners occupy ids [n, n_total) and are
  // admitted through the decision stream at their scheduled rtd.
  const int n = config_.protocol.n;
  const int n_joiners = static_cast<int>(config_.join_rtds.size());
  const int n_total = n + n_joiners;
  core::Config protocol = config_.protocol;
  if (n_joiners > 0) {
    protocol.n = n_total;
    protocol.initial_members = n;
  }
  const rt::RoundClock clock(config_.round_ticks);
  const Tick per_rtd = clock.ticks_per_rtd();

  // --- Fault plan -----------------------------------------------------
  Rng master(config_.seed);
  fault::FaultPlan plan(n_total);
  plan.uniform_omissions(config_.faults.omission_prob);
  plan.packet_loss(config_.faults.packet_loss);
  for (const auto& [p, at] : config_.faults.crashes) plan.crash(p, at);
  for (const PartitionSpec& spec : config_.faults.partitions) {
    const auto start = static_cast<Tick>(
        spec.start_rtd * static_cast<double>(per_rtd));
    const Tick end =
        spec.end_rtd < 0.0
            ? kNoTick
            : static_cast<Tick>(spec.end_rtd * static_cast<double>(per_rtd));
    plan.partition(spec.side_a, start, end);
  }
  if (config_.faults.window_end_rtd >= 0.0) {
    plan.fault_window(
        static_cast<Tick>(config_.faults.window_start_rtd *
                          static_cast<double>(per_rtd)),
        static_cast<Tick>(config_.faults.window_end_rtd *
                          static_cast<double>(per_rtd)));
  }
  // Coordinator crash storm (Figure 5): the coordinator of each targeted
  // subrun dies exactly at its decision round, before broadcasting. The
  // storm assumes distinct victims, which holds while f < n.
  for (int i = 0; i < config_.faults.coordinator_crashes; ++i) {
    const SubrunId s = config_.faults.coordinator_crash_start + i;
    const auto victim = static_cast<ProcessId>(s % n);
    plan.crash(victim, clock.round_start(2 * s + 1));
  }

  fault::FaultInjector injector(plan, master.fork(0x0FA17));

  // --- System assembly ------------------------------------------------
  // The runtime is declared first so it outlives (is destroyed after)
  // everything whose callbacks it may still hold.
  if (config_.metrics != nullptr) {
    URCGC_ASSERT_MSG(config_.metrics->processes() >= n_total,
                     "metrics registry built for fewer processes than n");
  }
  std::unique_ptr<rt::Runtime> runtime;
  if (config_.backend == Backend::kThreads) {
    rt::ThreadedConfig tc;
    tc.n = n_total;
    tc.clock = clock;
    tc.tick_duration = std::chrono::nanoseconds(config_.thread_tick_ns);
    tc.metrics = config_.metrics;
    runtime = std::make_unique<rt::ThreadedRuntime>(tc);
  } else if (config_.backend == Backend::kSocket) {
    rt::SocketConfig sc;
    sc.n = n_total;
    sc.clock = clock;
    sc.tick_duration = std::chrono::nanoseconds(config_.thread_tick_ns);
    sc.metrics = config_.metrics;
    auto created = rt::SocketRuntime::create(sc);
    URCGC_ASSERT_MSG(created.has_value(),
                     "socket backend: runtime creation failed (see "
                     "rt::SocketRuntime::create for the error contract)");
    runtime = std::move(created).value();
  } else {
    auto sim = std::make_unique<sim::Simulation>(clock);
    sim->set_schedule_salt(config_.schedule_salt);
    runtime = std::move(sim);
  }
  rt::Runtime& rt = *runtime;
  net::NetConfig net_config = config_.net;
  net_config.metrics = config_.metrics;
  net::Network network(rt, injector, net_config, master.fork(0x0E7));
  Recorder recorder(per_rtd, config_.extra_observer, config_.metrics);

  std::vector<std::unique_ptr<net::Endpoint>> endpoints;
  std::vector<net::TransportEndpoint*> transports;
  std::vector<std::unique_ptr<core::UrcgcProcess>> processes;
  endpoints.reserve(n_total);
  processes.reserve(n_total);
  for (ProcessId p = 0; p < n_total; ++p) {
    if (config_.use_transport) {
      auto transport = std::make_unique<net::TransportEndpoint>(
          network, p, config_.transport);
      transports.push_back(transport.get());
      endpoints.push_back(std::move(transport));
    } else {
      endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    }
    processes.push_back(std::make_unique<core::UrcgcProcess>(
        protocol, p, rt, *endpoints.back(), injector, &recorder,
        config_.metrics));
  }

  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&](ProcessId p, std::vector<std::uint8_t> payload,
                     std::vector<Mid> deps) {
    return processes[p]->data_rq(std::move(payload), std::move(deps));
  };
  hooks.active = [&](ProcessId p) {
    // Joiners take workload only once catch-up completes — a catching-up
    // process must not extend its own sequence mid-transfer.
    return processes[p]->member() && !processes[p]->halted() &&
           !injector.is_crashed(p, rt.now());
  };
  hooks.pending = [&](ProcessId p) {
    return static_cast<std::int64_t>(processes[p]->pending_user_messages());
  };
  hooks.last_processed = [&](ProcessId p, ProcessId origin) {
    return processes[p]->last_processed_mid_of(origin);
  };
  workload::LoadGenerator load(n_total, config_.workload, std::move(hooks),
                               master.fork(0x10AD));

  // Registration order fixes intra-round execution order: workload first
  // (so submissions are visible to this round's generation), processes
  // next, samplers last (so series reflect post-round state).
  rt.on_round([&](RoundId round) { load.on_round(round); });
  for (ProcessId p = 0; p < n; ++p) processes[p]->start();
  // Joiners boot at their scheduled tick, on their own execution context:
  // start() attaches the endpoint upcall and round heartbeat from inside
  // the posted closure, which every backend permits from the owner's
  // context (see rt::Runtime::on_round).
  for (int j = 0; j < n_joiners; ++j) {
    const auto p = static_cast<ProcessId>(n + j);
    const auto at = static_cast<Tick>(config_.join_rtds[static_cast<std::size_t>(j)] *
                                      static_cast<double>(per_rtd));
    core::UrcgcProcess* joiner = processes[static_cast<std::size_t>(p)].get();
    rt.post(p, at, [joiner] { joiner->start(); });
  }

  ExperimentReport report;
  rt.on_round([&](RoundId round) {
    double hist_max = 0.0;
    double hist_sum = 0.0;
    double wait_max = 0.0;
    int alive = 0;
    for (const auto& process : processes) {
      if (process->halted()) continue;
      ++alive;
      const auto h = static_cast<double>(process->mt().history_size());
      const auto w = static_cast<double>(process->mt().waiting_size());
      hist_max = std::max(hist_max, h);
      hist_sum += h;
      wait_max = std::max(wait_max, w);
    }
    const Tick at = clock.round_start(round);
    report.history_max.record(at, hist_max);
    report.history_avg.record(at, alive > 0 ? hist_sum / alive : 0.0);
    report.waiting_max.record(at, wait_max);
  });

  // Per-round registry sampling. Runs as a host round handler: on the
  // threaded backend every worker is parked at the barrier while host
  // handlers execute, so reading protocol state here is race-free.
  if (config_.metrics != nullptr) {
    obs::Registry& reg = *config_.metrics;
    const obs::Metric g_hist = reg.gauge("proc.history_len");
    const obs::Metric g_wait = reg.gauge("proc.waiting_depth");
    const obs::Metric g_inbox = reg.gauge("proc.inbox_size");
    const obs::Metric g_age = reg.gauge("proc.decision_age_subruns");
    const obs::Metric g_inflight = reg.gauge("proc.decisions_in_flight");
    rt.on_round([&reg, &processes, clock, g_hist, g_wait, g_inbox, g_age,
                 g_inflight](RoundId round) {
      const Tick at = clock.round_start(round);
      const SubrunId subrun = rt::RoundClock::subrun_of_round(round);
      for (const auto& process : processes) {
        if (process->halted()) continue;
        const ProcessId p = process->id();
        reg.sample(at, p, g_hist,
                   static_cast<double>(process->mt().history_size()));
        reg.sample(at, p, g_wait,
                   static_cast<double>(process->mt().waiting_size()));
        reg.sample(at, p, g_inbox,
                   static_cast<double>(process->inbox_size()));
        // Subruns since the freshest decision this process holds was made
        // (initial decision => age since subrun 0 — "never heard one").
        const SubrunId decided_at =
            std::max<SubrunId>(process->latest_decision().decided_at, 0);
        reg.sample(at, p, g_age, static_cast<double>(subrun - decided_at));
        reg.sample(at, p, g_inflight,
                   static_cast<double>(process->decisions_in_flight(subrun)));
      }
    });
  }

  // --- Run -------------------------------------------------------------
  const auto limit = static_cast<Tick>(config_.limit_rtd *
                                       static_cast<double>(per_rtd));
  const auto quiescent = [&] {
    if (!load.exhausted()) return false;
    for (const auto& process : processes) {
      if (process->halted()) continue;
      // A joiner still dormant, soliciting admission, or mid-catch-up is
      // outstanding work: the run isn't settled until every surviving
      // joiner is a full member.
      if (!process->member()) return false;
      if (process->pending_user_messages() > 0) return false;
      if (process->mt().waiting_size() > 0) return false;
      if (!process->mt().missing_ranges().empty()) return false;
      // Gaps advertised by the circulating decision count as outstanding
      // work too (the process will issue recovery for them). The decision
      // vectors are view-width, which may lag capacity.
      const auto& d = process->latest_decision();
      for (ProcessId q = 0; q < d.n(); ++q) {
        if (d.max_processed[q] != kNoSeq &&
            d.max_processed[q] > process->mt().prefix(q)) {
          return false;
        }
      }
    }
    return true;
  };

  Tick stopped_at = rt.run_until_quiescent(limit, quiescent);
  report.quiescent = quiescent();
  if (report.quiescent && config_.grace_subruns > 0) {
    const Tick grace_end =
        stopped_at + config_.grace_subruns * clock.ticks_per_subrun();
    stopped_at = rt.run_until(std::min(grace_end, limit));
  }

  // --- Report assembly --------------------------------------------------
  report.workload_exhausted = load.exhausted();
  report.end_tick = stopped_at;
  report.end_rtd = clock.to_rtd(stopped_at);
  report.submitted = load.submitted();
  report.generated = recorder.generated_;
  report.processed_events = recorder.delays_.processed_events();
  report.discarded = recorder.discarded_;
  report.delay_rtd = to_rtd_summary(recorder.delays_.delays_ticks(), per_rtd);
  report.completion_rtd =
      to_rtd_summary(recorder.delays_.completion_ticks(), per_rtd);
  report.traffic = recorder.traffic_;
  for (net::TransportEndpoint* transport : transports) {
    const auto& ts = transport->stats();
    for (std::uint64_t i = 0; i < ts.acks_sent; ++i) {
      report.traffic.record(stats::MsgClass::kTransportAck, 9);
    }
  }
  report.net_stats = network.stats();
  report.fault_counters = injector.counters();
  report.buffers = wire::buffer_stats() - buffers_before;
  if (config_.metrics != nullptr) {
    // Host-shard counters so metric exports carry the buffer accounting.
    // buffer_stats() is process-global: in-process concurrent runs would
    // attribute each other's traffic, which no current caller does.
    obs::Registry& reg = *config_.metrics;
    reg.add(kNoProcess, reg.counter("wire.buffer_allocations"),
            report.buffers.allocations);
    reg.add(kNoProcess, reg.counter("wire.buffer_bytes_allocated"),
            report.buffers.bytes_allocated);
    reg.add(kNoProcess, reg.counter("wire.buffer_bytes_copied"),
            report.buffers.bytes_copied);
  }
  report.decisions = std::move(recorder.decisions_);
  report.halts = std::move(recorder.halts_);
  report.joins = std::move(recorder.joins_);

  report.processes.reserve(n_total);
  for (const auto& process : processes) {
    ProcessEndState state;
    state.halted = process->halted();
    state.reason = process->halt_reason();
    state.processed = process->mt().processing_log().size();
    state.history = process->mt().history_size();
    state.waiting = process->mt().waiting_size();
    state.flow_blocked_rounds = process->counters().flow_blocked_rounds;
    state.requests_dropped = process->counters().requests_dropped;
    state.waiting_peak = process->mt().waiting_peak();
    state.history_peak = process->mt().history_peak();
    state.inbox_peak = process->inbox_peak();
    const core::UrcgcProcess::Counters& c = process->counters();
    state.waiting_rejected = c.waiting_rejected;
    state.inbox_duplicates = c.inbox_duplicates;
    state.inbox_overflow = c.inbox_overflow;
    state.backpressure_paused_rounds = c.backpressure_paused_rounds;
    state.recoveries_issued = c.recoveries_issued;
    state.recovery_batches = c.recovery_batches;
    state.recovery_msgs = c.recovery_msgs;
    state.recovery_continuations = c.recovery_continuations;
    state.recovery_budget_exhausted = c.recovery_budget_exhausted;
    state.recovery_cache_hits = c.recovery_cache_hits;
    state.pipeline_eager_deliveries = c.pipeline_eager_deliveries;
    state.pipeline_stall_rounds = c.pipeline_stall_rounds;
    state.pipeline_subruns_in_flight = c.pipeline_subruns_in_flight;
    state.join_phase = process->join_phase();
    state.join_requested = c.join_requested;
    state.join_decided = c.join_decided;
    state.join_catchup_batches = c.join_catchup_batches;
    state.join_catchup_msgs = c.join_catchup_msgs;
    report.processes.push_back(state);
  }

  // --- URCGC clause validation ------------------------------------------
  // Shared with the trace oracle (src/check): one implementation of the
  // end-state clauses for every consumer.
  std::vector<std::span<const Mid>> logs;
  std::vector<bool> halted;
  logs.reserve(n_total);
  halted.reserve(n_total);
  for (const auto& process : processes) {
    logs.emplace_back(process->mt().processing_log());
    // A joiner that never completed admission (dormant, join budget
    // exhausted, run hit the limit) never entered the group — it is
    // exempt from atomicity exactly like a departed process.
    halted.push_back(process->halted() || !process->member());
  }
  std::vector<std::vector<Seq>> baselines(
      static_cast<std::size_t>(n_total));
  for (const JoinEvent& event : report.joins) {
    baselines[static_cast<std::size_t>(event.p)] = event.baseline;
  }
  check::EndStateResult end_state =
      check::validate_end_state(recorder.graph_, logs, halted, baselines);
  report.acyclic_ok = end_state.acyclic_ok;
  report.ordering_ok = end_state.ordering_ok;
  report.atomicity_ok = end_state.atomicity_ok;
  report.violations = std::move(end_state.violations);

  return report;
}

double ExperimentReport::recovery_time_rtd(
    const std::vector<ProcessId>& crashed, Tick first_crash_tick,
    Tick ticks_per_rtd) const {
  for (const DecisionEvent& event : decisions) {
    if (event.at < first_crash_tick) continue;
    if (!event.full_group) continue;
    const bool all_marked = std::all_of(
        crashed.begin(), crashed.end(),
        [&](ProcessId p) { return !event.alive[p]; });
    if (all_marked) {
      return static_cast<double>(event.at - first_crash_tick) /
             static_cast<double>(ticks_per_rtd);
    }
  }
  return -1.0;
}

}  // namespace urcgc::harness
