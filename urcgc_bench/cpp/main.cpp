// urcgc benchmark binary.
//
//   urcgc_bench --workload steady|lossy|wide|loopback --seed N --seconds S
//               --trace 0|1 [--smoke] [--source ID]
//
// Assembles the stack from its public pieces, the way examples/ do: an
// rt::Runtime backend, net::Network, one net::DatagramEndpoint per member,
// core::UrcgcProcess and workload::LoadGenerator, with one core::Observer
// per member so no shared lock sits on the delivery path. A run repeats
// identical episodes (same seed, same inputs) until --seconds are used up;
// timings are the best any episode reached (see the report section) and
// counts repeat exactly on the sim. Each episode is
//
//   set-up -> warm-up rounds -> measured window -> drain -> validation
//
// where the window lies between two round boundaries, load stops at the
// window's end, and the drain runs until the group is quiescent so every
// message generated in the window can be accounted for. Validation runs
// check::validate_end_state over every member's processing log.
//
// --trace 1 alternates untraced and traced episodes; traced episodes wrap
// the runtime and every endpoint with the decorators of tracing.hpp and
// attach an obs::Registry, and yield the per-layer metrics. --trace 0
// constructs none of that and yields the end-to-end metrics. The last
// line of stdout is one JSON object; lines before it describe the host
// and the run.

#include <sys/utsname.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "causal/graph.hpp"
#include "check/clauses.hpp"
#include "common/rng.hpp"
#include "core/process.hpp"
#include "fault/injector.hpp"
#include "net/endpoint.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "runtime/socket.hpp"
#include "sim/simulation.hpp"
#include "tracing.hpp"
#include "wire/shared_buffer.hpp"
#include "workload/workload.hpp"

namespace {

using namespace urcgc;
using bench::Layer;
using bench::LayerTotals;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool socket;  ///< rt::SocketRuntime (real threads, UDP) instead of the sim
  int n;
  int k;  ///< pipeline depth (Config::max_subruns_in_flight) = load burst
  core::ControlEncoding encoding;
  double omission;  ///< uniform send+receive omission probability
  double load;
  std::size_t payload;
  int warmup_rounds;
  int window_rounds;
  int drain_rounds;  ///< upper bound on the drain; quiescence ends it
  int round_us;      ///< socket only: paced round length
};

// Why each workload exists is documented in urcgc_bench/README.md.
constexpr Workload kWorkloads[] = {
    {"steady", false, 10, 4, core::ControlEncoding::kFull, 0.0, 1.0, 64, 20,
     200, 400, 0},
    {"lossy", false, 10, 4, core::ControlEncoding::kFull, 0.01, 1.0, 64, 20,
     200, 400, 0},
    {"wide", false, 100, 4, core::ControlEncoding::kDelta, 0.0, 0.01, 64, 20,
     80, 400, 0},
    {"loopback", true, 3, 4, core::ControlEncoding::kFull, 0.0, 1.0, 1024, 50,
     250, 300, 1000},
};

constexpr int kSmokeWarmupRounds = 10;
constexpr int kSmokeWindowRounds = 30;
constexpr double kCrossDepProb = 0.3;
constexpr std::int64_t kMaxPendingPerMember = 4;
constexpr Tick kTicksPerRound = 10;
constexpr Tick kMinLatency = 5;
constexpr Tick kMaxLatency = 9;
constexpr Tick kGraceSubruns = 8;
constexpr double kPacingSlack = 0.05;

// ---------------------------------------------------------------------------
// Clocks

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Bench bookkeeping. Sized before the episode's heap baseline is taken and
// never grown while the stack runs, so none of it counts as the program's
// allocations.

struct GenRecord {
  Tick at = kNoTick;
  std::int64_t wall = 0;
  std::uint32_t dep_begin = 0;
  std::uint32_t dep_count = 0;
};

struct ProcRecord {
  ProcessId origin = kNoProcess;
  Seq seq = kNoSeq;
  Tick at = 0;
  std::int64_t wall = 0;
};

struct Book {
  Tick window_start = 0;
  Tick window_end = 0;
  std::vector<std::vector<GenRecord>> gen;         // [origin][seq]
  std::vector<std::vector<Mid>> deps;              // [origin], flat
  std::vector<std::vector<ProcRecord>> processed;  // [member], from window
  std::vector<double> lag_us;                      // socket: per window round
};

/// One per member; written only from that member's execution context.
class MemberObserver final : public core::Observer {
 public:
  MemberObserver(Book& book, ProcessId self) : book_(book), self_(self) {}

  void on_generated(ProcessId p, const core::AppMessage& msg,
                    Tick at) override {
    auto& log = book_.gen[static_cast<std::size_t>(p)];
    auto& deps = book_.deps[static_cast<std::size_t>(p)];
    const auto seq = static_cast<std::size_t>(msg.mid.seq);
    if (seq >= log.size() ||
        deps.size() + msg.deps.size() > deps.capacity()) {
      overflow = true;
      return;
    }
    log[seq] = GenRecord{at, wall_ns(), static_cast<std::uint32_t>(deps.size()),
                         static_cast<std::uint32_t>(msg.deps.size())};
    deps.insert(deps.end(), msg.deps.begin(), msg.deps.end());
  }

  void on_processed(ProcessId /*p*/, const core::AppMessage& msg,
                    Tick at) override {
    ++deliveries;
    if (at < book_.window_start) return;
    auto& out = book_.processed[static_cast<std::size_t>(self_)];
    if (out.size() == out.capacity()) {
      overflow = true;
      return;
    }
    out.push_back(ProcRecord{msg.mid.origin, msg.mid.seq, at, wall_ns()});
  }

  void on_sent(ProcessId /*p*/, stats::MsgClass cls, std::size_t bytes,
               Tick /*at*/) override {
    if (cls == stats::MsgClass::kAppData) return;
    control_bytes += bytes;
    if (cls == stats::MsgClass::kRequest || cls == stats::MsgClass::kDecision) {
      ++control_frames;
    }
  }

  std::uint64_t deliveries = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t control_frames = 0;
  bool overflow = false;

 private:
  Book& book_;
  ProcessId self_;
};

// ---------------------------------------------------------------------------
// Window snapshots (allocation-free: taken inside the measured window's
// allocation count).

/// Registry counters read in traced episodes.
enum RegCounter : int {
  kEager,
  kRecoveriesIssued,
  kRecoveriesServed,
  kRecoveryMsgs,
  kRecoveryCacheHits,
  kDeltaFallbacks,
  kAnchorMiss,
  kRequestsDropped,
  kRegCounters,
};
constexpr const char* kRegCounterNames[kRegCounters] = {
    "core.pipeline_eager_deliveries", "urcgc.recoveries_issued",
    "urcgc.recoveries_served",        "core.recovery_msgs",
    "core.recovery_cache_hits",       "core.delta_fallbacks",
    "core.delta_anchor_miss",         "urcgc.requests_dropped",
};

struct Snap {
  std::int64_t wall = 0;
  std::int64_t cpu = 0;
  std::int64_t host_cpu = 0;
  std::uint64_t allocs = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t duplicates = 0;
  net::NetStats net;
  wire::BufferStats buffers;
  LayerTotals layers;
  std::uint64_t member_top_ns = 0;
  std::uint64_t posts = 0;
  std::array<std::uint64_t, kRegCounters> reg{};
  std::uint64_t tx = 0, rx = 0, send_calls = 0, recv_calls = 0, retries = 0;
  std::uint64_t ring_overflows = 0;
};

// ---------------------------------------------------------------------------
// Episode

struct EpisodeResult {
  bool ok = true;
  std::string error;
  bool paced = true;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t allocs = 0;
  std::int64_t peak_heap_bytes = 0;
  double delay_ms_p50 = 0, delay_ms_p99 = 0;
  double delay_rtd_p50 = 0, delay_rtd_p99 = 0;
  std::size_t delay_samples = 0;
  std::uint64_t expected = 0;
  std::uint64_t undelivered = 0;
  double lag_p50_us = 0, lag_p99_us = 0;
  std::vector<std::pair<std::string, double>> layers;  // traced only
};

/// Nearest-rank percentile; sorts `v`.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

EpisodeResult run_episode(const Workload& w, std::uint64_t seed, bool traced) {
  EpisodeResult res;
  const int n = w.n;
  const auto nz = static_cast<std::size_t>(n);
  const rt::RoundClock clock(kTicksPerRound);
  const RoundId w0 = w.warmup_rounds;
  const RoundId w1 = w.warmup_rounds + w.window_rounds;

  // --- Bookkeeping, sized from the workload's bounds --------------------
  Book book;
  book.window_start = clock.round_start(w0);
  book.window_end = clock.round_start(w1);
  // Generation budget is k per member per round; nothing is generated
  // during the drain.
  const auto max_seq = static_cast<std::size_t>(w1) *
                           static_cast<std::size_t>(w.k) + 2;
  const double expected_group_msgs =
      static_cast<double>(w1) * n * w.k * std::min(1.0, w.load);
  const auto max_processed = std::min<std::size_t>(
      max_seq * nz, static_cast<std::size_t>(2.0 * expected_group_msgs) + 4096);
  book.gen.assign(nz, std::vector<GenRecord>(max_seq));
  book.deps.resize(nz);
  book.processed.resize(nz);
  for (std::size_t p = 0; p < nz; ++p) {
    book.deps[p].reserve(max_seq * 2);
    book.processed[p].reserve(max_processed);
  }
  book.lag_us.reserve(static_cast<std::size_t>(w.window_rounds));
  std::vector<std::unique_ptr<MemberObserver>> observers;
  observers.reserve(nz);
  for (ProcessId p = 0; p < n; ++p) {
    observers.push_back(std::make_unique<MemberObserver>(book, p));
  }
  std::optional<obs::Registry> registry;
  std::optional<bench::Tracer> tracer;
  if (traced) {
    registry.emplace(n);
    tracer.emplace(n, std::max<std::size_t>(4, 256 / nz));
  }

  const std::int64_t heap_base = bench::heap::reset_peak();
  const std::int64_t setup_begin = wall_ns();

  // --- Assembly -----------------------------------------------------------
  // Declared first so it is destroyed last: it may hold closures that
  // reference everything below.
  std::unique_ptr<rt::Runtime> inner;
  rt::SocketRuntime* sockets = nullptr;
  obs::Registry* metrics = registry ? &*registry : nullptr;
  if (w.socket) {
    rt::SocketConfig sc;
    sc.n = n;
    sc.clock = clock;
    sc.tick_duration = std::chrono::nanoseconds(
        static_cast<std::int64_t>(w.round_us) * 1000 / kTicksPerRound);
    sc.metrics = metrics;
    auto created = rt::SocketRuntime::create(sc);
    if (!created) {
      res.ok = false;
      res.error = "socket runtime: " + created.error();
      return res;
    }
    sockets = created.value().get();
    inner = std::move(created).value();
  } else {
    inner = std::make_unique<sim::Simulation>(clock);
  }
  std::optional<bench::TracedRuntime> traced_rt;
  if (traced) traced_rt.emplace(*inner, *tracer, w.socket);
  rt::Runtime& rt = traced ? static_cast<rt::Runtime&>(*traced_rt) : *inner;

  Rng master(seed);
  fault::FaultPlan plan(nz);
  plan.uniform_omissions(w.omission);
  fault::FaultInjector injector(plan, master.fork(0x0FA17));
  net::NetConfig net_config{.min_latency = kMinLatency,
                            .max_latency = kMaxLatency,
                            .metrics = metrics};
  net::Network network(rt, injector, net_config, master.fork(0x0E7));

  core::Config protocol;
  protocol.n = n;
  protocol.max_subruns_in_flight = w.k;
  protocol.control_encoding = w.encoding;
  protocol.payload_bytes = w.payload;

  std::vector<std::unique_ptr<net::DatagramEndpoint>> datagram_endpoints;
  std::vector<std::unique_ptr<bench::TracedEndpoint>> traced_endpoints;
  std::vector<std::unique_ptr<core::UrcgcProcess>> processes;
  datagram_endpoints.reserve(nz);
  traced_endpoints.reserve(nz);
  processes.reserve(nz);
  for (ProcessId p = 0; p < n; ++p) {
    datagram_endpoints.push_back(
        std::make_unique<net::DatagramEndpoint>(network, p));
    net::Endpoint* endpoint = datagram_endpoints.back().get();
    if (traced) {
      traced_endpoints.push_back(
          std::make_unique<bench::TracedEndpoint>(*endpoint, *tracer));
      endpoint = traced_endpoints.back().get();
    }
    processes.push_back(std::make_unique<core::UrcgcProcess>(
        protocol, p, rt, *endpoint, injector,
        observers[static_cast<std::size_t>(p)].get(), metrics));
  }

  bool draining = false;
  workload::WorkloadConfig wc;
  wc.load = w.load;
  wc.total_messages = 0;
  wc.cross_dep_prob = kCrossDepProb;
  wc.max_pending_per_process = kMaxPendingPerMember;
  wc.burst = w.k;
  wc.payload_bytes = w.payload;
  workload::LoadGenerator::Hooks hooks;
  hooks.submit = [&](ProcessId p, std::vector<std::uint8_t> payload,
                     std::vector<Mid> deps) {
    return processes[static_cast<std::size_t>(p)]->data_rq(std::move(payload),
                                                           std::move(deps));
  };
  hooks.active = [&](ProcessId p) {
    return !draining && !processes[static_cast<std::size_t>(p)]->halted();
  };
  hooks.pending = [&](ProcessId p) {
    return static_cast<std::int64_t>(
        processes[static_cast<std::size_t>(p)]->pending_user_messages());
  };
  hooks.last_processed = [&](ProcessId p, ProcessId origin) {
    return processes[static_cast<std::size_t>(p)]->last_processed_mid_of(
        origin);
  };
  workload::LoadGenerator load(n, wc, std::move(hooks), master.fork(0x10AD));

  // Bench-side host handlers go straight to the backend, never through the
  // traced decorator: they are measurement, not the system.
  std::int64_t first_round_at = 0;
  inner->on_round([&](RoundId) {
    if (first_round_at == 0) first_round_at = wall_ns();
  });
  std::int64_t window_anchor = 0;
  const std::int64_t round_ns = static_cast<std::int64_t>(w.round_us) * 1000;
  if (w.socket) {
    // Release lag from outside: how late each window round's host
    // handlers start against the 1-per-round_us schedule anchored at the
    // window's run call.
    inner->on_round([&, w0, w1](RoundId r) {
      if (r < w0 || r >= w1) return;
      const std::int64_t due = window_anchor + (r - w0) * round_ns;
      book.lag_us.push_back(static_cast<double>(wall_ns() - due) / 1000.0);
    });
  }
  double history_sum = 0, waiting_sum = 0, state_samples = 0;
  if (traced) {
    inner->on_round([&, w0, w1](RoundId r) {
      if (r < w0 || r >= w1) return;
      for (const auto& process : processes) {
        if (process->halted()) continue;
        history_sum += static_cast<double>(process->mt().history_size());
        waiting_sum += static_cast<double>(process->mt().waiting_size());
        state_samples += 1;
      }
    });
  }
  rt.on_round([&](RoundId round) { load.on_round(round); });
  for (auto& process : processes) process->start();

  std::array<obs::Metric, kRegCounters> reg_metrics{};
  if (traced) {
    for (int i = 0; i < kRegCounters; ++i) {
      reg_metrics[static_cast<std::size_t>(i)] =
          registry->find(kRegCounterNames[i]);
    }
  }

  const auto gather = [&](Snap& s) {
    for (const auto& o : observers) {
      s.deliveries += o->deliveries;
      s.control_bytes += o->control_bytes;
      s.control_frames += o->control_frames;
    }
    for (const auto& process : processes) {
      s.duplicates += process->mt().duplicates_ignored();
    }
    s.net = network.stats();
    s.buffers = wire::buffer_stats();
    if (traced) {
      s.layers = tracer->totals();
      for (int p = 0; p < n; ++p) s.member_top_ns += tracer->totals_of(p).top_ns;
      s.posts = tracer->posts();
      for (std::size_t i = 0; i < kRegCounters; ++i) {
        s.reg[i] = registry->counter_total(reg_metrics[i]);
      }
    }
    if (sockets != nullptr) {
      s.tx = sockets->tx_datagrams();
      s.rx = sockets->rx_datagrams();
      s.send_calls = sockets->send_syscalls();
      s.recv_calls = sockets->recv_syscalls();
      s.retries = sockets->send_retries();
      s.ring_overflows = sockets->ring_overflows();
    }
  };

  // --- Run ---------------------------------------------------------------
  rt.run_until(clock.round_start(w0) - 1);
  res.setup_s = static_cast<double>(first_round_at - setup_begin) / 1e9;

  Snap s0;
  Snap s1;
  gather(s0);
  if (traced) tracer->set_capturing(true);
  s0.host_cpu = bench::thread_cpu_ns();
  s0.allocs = bench::heap::allocations();
  s0.cpu = process_cpu_ns();
  s0.wall = wall_ns();
  window_anchor = s0.wall;
  rt.run_until(clock.round_start(w1) - 1);
  s1.wall = wall_ns();
  s1.cpu = process_cpu_ns();
  s1.allocs = bench::heap::allocations();
  s1.host_cpu = bench::thread_cpu_ns();
  if (traced) tracer->set_capturing(false);
  gather(s1);

  draining = true;
  const auto quiescent = [&] {
    for (const auto& process : processes) {
      if (process->halted()) continue;
      if (process->pending_user_messages() > 0) return false;
      if (process->mt().waiting_size() > 0) return false;
      if (!process->mt().missing_ranges().empty()) return false;
      const auto& d = process->latest_decision();
      for (ProcessId q = 0; q < d.n(); ++q) {
        if (d.max_processed[static_cast<std::size_t>(q)] != kNoSeq &&
            d.max_processed[static_cast<std::size_t>(q)] >
                process->mt().prefix(q)) {
          return false;
        }
      }
    }
    return true;
  };
  // The predicate cannot see datagrams still in flight (on the threaded
  // backends a frame sent in round r is read at r+1), so a quiescent group
  // runs a grace period and must still be quiescent after it.
  const Tick quiet_at = rt.run_until_quiescent(
      clock.round_start(w1 + w.drain_rounds), quiescent);
  rt.run_until(quiet_at + kGraceSubruns * clock.ticks_per_subrun());
  const bool settled = quiescent();
  res.peak_heap_bytes = bench::heap::peak_bytes() - heap_base;
  if (sockets != nullptr) sockets->shutdown();

  // --- End-to-end accounting ----------------------------------------------
  res.wall_s = static_cast<double>(s1.wall - s0.wall) / 1e9;
  res.cpu_s = static_cast<double>(s1.cpu - s0.cpu) / 1e9;
  res.deliveries = s1.deliveries - s0.deliveries;
  res.control_bytes = s1.control_bytes - s0.control_bytes;
  res.allocs = s1.allocs - s0.allocs;

  for (const auto& o : observers) {
    if (o->overflow) {
      res.ok = false;
      res.error = "bench bookkeeping bound exceeded";
    }
  }
  if (!settled) {
    res.ok = false;
    res.error = "group did not quiesce within the drain bound";
  }

  std::uint64_t window_msgs = 0;
  for (const auto& log : book.gen) {
    for (const GenRecord& g : log) {
      if (g.at >= book.window_start && g.at < book.window_end) ++window_msgs;
    }
  }
  const double per_rtd = static_cast<double>(clock.ticks_per_rtd());
  std::vector<double> delay_ms;
  std::vector<double> delay_rtd;
  for (std::size_t q = 0; q < nz; ++q) {
    if (processes[q]->halted()) continue;
    res.expected += window_msgs;
    std::uint64_t got = 0;
    for (const ProcRecord& rec : book.processed[q]) {
      const auto& log = book.gen[static_cast<std::size_t>(rec.origin)];
      if (static_cast<std::size_t>(rec.seq) >= log.size()) continue;
      const GenRecord& g = log[static_cast<std::size_t>(rec.seq)];
      if (g.at < book.window_start || g.at >= book.window_end) continue;
      ++got;
      delay_ms.push_back(static_cast<double>(rec.wall - g.wall) / 1e6);
      delay_rtd.push_back(static_cast<double>(rec.at - g.at) / per_rtd);
    }
    if (got > window_msgs) {
      res.ok = false;
      res.error = "a member processed a window message twice";
    }
    res.undelivered += window_msgs - std::min(got, window_msgs);
  }
  if (window_msgs == 0) {
    res.ok = false;
    res.error = "no message was generated in the window";
  }
  res.delay_samples = delay_ms.size();
  res.delay_ms_p50 = percentile(delay_ms, 0.50);
  res.delay_ms_p99 = percentile(delay_ms, 0.99);
  res.delay_rtd_p50 = percentile(delay_rtd, 0.50);
  res.delay_rtd_p99 = percentile(delay_rtd, 0.99);

  if (w.socket) {
    std::vector<double> lags = book.lag_us;
    res.lag_p50_us = percentile(lags, 0.50);
    res.lag_p99_us = percentile(lags, 0.99);
    // Pacing guard: the rounds fell behind the cadence when the typical
    // round opens a whole round late, or the window as a whole overran
    // its schedule. A one-off scheduling hiccup shows in the p99 but the
    // absolute schedule catches up after it, so it trips neither.
    const double scheduled_s = w.window_rounds * w.round_us / 1e6;
    res.paced = res.lag_p50_us < static_cast<double>(w.round_us) &&
                res.wall_s < scheduled_s * (1.0 + kPacingSlack);
  }

  // --- Validation ----------------------------------------------------------
  {
    causal::CausalGraph graph;
    for (std::size_t o = 0; o < nz; ++o) {
      for (std::size_t seq = 1; seq < book.gen[o].size(); ++seq) {
        const GenRecord& g = book.gen[o][seq];
        if (g.at == kNoTick) break;
        graph.add(Mid{static_cast<ProcessId>(o), static_cast<Seq>(seq)},
                  std::span<const Mid>(book.deps[o].data() + g.dep_begin,
                                       g.dep_count));
      }
    }
    std::vector<std::span<const Mid>> logs;
    std::vector<bool> halted;
    for (const auto& process : processes) {
      logs.emplace_back(process->mt().processing_log());
      halted.push_back(process->halted());
    }
    const check::EndStateResult end = check::validate_end_state(graph, logs, halted);
    if (!end.all_ok()) {
      res.ok = false;
      res.error = end.violations.empty() ? "end-state validation failed"
                                         : end.violations.front();
    }
  }

  if (!traced) return res;

  // --- Per-layer metrics (traced episodes) ----------------------------------
  const LayerTotals lt = s1.layers - s0.layers;
  const auto self = [&](Layer l) {
    return static_cast<double>(lt.self_ns[static_cast<std::size_t>(l)]);
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(lt.calls[static_cast<std::size_t>(l)]);
  };
  const auto reg = [&](RegCounter c) {
    return static_cast<double>(s1.reg[c] - s0.reg[c]);
  };
  const double d = static_cast<double>(res.deliveries);
  const double subruns = w.window_rounds / 2.0;
  const double wall = static_cast<double>(s1.wall - s0.wall);
  const double cpu = static_cast<double>(s1.cpu - s0.cpu);
  // Runtime self time: time on runtime-owned threads outside every traced
  // boundary, plus closures that delivered nothing. On the sim the one
  // thread is the event loop, busy for the window's wall time; on the
  // socket backend it is each member thread's CPU plus the host thread's.
  const double runtime_threads =
      w.socket ? static_cast<double>(lt.thread_cpu_ns) +
                     static_cast<double>(s1.host_cpu - s0.host_cpu)
               : wall;
  const double outside_spans = runtime_threads - static_cast<double>(lt.top_ns);
  const double runtime_self = outside_spans + self(Layer::kRuntimeTask);
  double layer_sum = outside_spans;
  for (std::size_t l = 0; l < bench::kLayers; ++l) {
    layer_sum += static_cast<double>(lt.self_ns[l]);
  }
  const double member_top =
      static_cast<double>(s1.member_top_ns - s0.member_top_ns);
  std::size_t history_peak = 0, waiting_peak = 0;
  for (const auto& process : processes) {
    history_peak = std::max(history_peak, process->mt().history_peak());
    waiting_peak = std::max(waiting_peak, process->mt().waiting_peak());
  }
  const bench::Tracer::Replay replay = tracer->replay();
  const double sent = static_cast<double>(s1.net.packets_sent - s0.net.packets_sent);
  const double dups = static_cast<double>(s1.duplicates - s0.duplicates);
  const double frames =
      static_cast<double>(s1.control_frames - s0.control_frames);
  const double tx = static_cast<double>(s1.tx - s0.tx);

  auto& out = res.layers;
  out.emplace_back("runtime.self_ns_per_delivery", ratio(runtime_self, d));
  out.emplace_back("runtime.posts_per_delivery",
                   ratio(static_cast<double>(s1.posts - s0.posts), d));
  out.emplace_back("runtime.release_lag_us_p50", res.lag_p50_us);
  out.emplace_back("runtime.release_lag_us_p99", res.lag_p99_us);
  out.emplace_back("runtime.ring_overflows_per_round",
                   static_cast<double>(s1.ring_overflows - s0.ring_overflows) /
                       w.window_rounds);
  out.emplace_back("runtime.worker_busy_share",
                   ratio(member_top, (w.socket ? n : 1) * wall));
  out.emplace_back("socket.datagrams_per_send_call",
                   ratio(tx, static_cast<double>(s1.send_calls - s0.send_calls)));
  out.emplace_back("socket.datagrams_per_recv_call",
                   ratio(static_cast<double>(s1.rx - s0.rx),
                         static_cast<double>(s1.recv_calls - s0.recv_calls)));
  out.emplace_back("socket.send_retries_per_datagram",
                   ratio(static_cast<double>(s1.retries - s0.retries), tx));
  out.emplace_back("net.send_ns_per_delivery", ratio(self(Layer::kNetSend), d));
  out.emplace_back("net.deliver_ns_per_delivery",
                   ratio(self(Layer::kNetDeliver), d));
  out.emplace_back("net.datagrams_per_delivery", ratio(sent, d));
  out.emplace_back(
      "net.drop_share",
      ratio(static_cast<double>(s1.net.packets_dropped - s0.net.packets_dropped),
            sent));
  out.emplace_back("core.rx_app_ns_per_frame",
                   ratio(self(Layer::kRxApp), calls(Layer::kRxApp)));
  out.emplace_back("core.eager_share", ratio(reg(kEager), d));
  out.emplace_back("core.duplicate_share", ratio(dups, d + dups));
  out.emplace_back("core.history_len_mean", ratio(history_sum, state_samples));
  out.emplace_back("core.history_peak", static_cast<double>(history_peak));
  out.emplace_back("causal.waiting_depth_mean",
                   ratio(waiting_sum, state_samples));
  out.emplace_back("causal.waiting_peak", static_cast<double>(waiting_peak));
  out.emplace_back("core.decision_round_ns_per_subrun",
                   self(Layer::kDecisionRound) / subruns);
  out.emplace_back("core.request_round_ns_per_subrun",
                   self(Layer::kRequestRound) / subruns);
  out.emplace_back("core.rx_decision_ns_per_frame",
                   ratio(self(Layer::kRxDecision), calls(Layer::kRxDecision)));
  out.emplace_back("core.rx_request_ns_per_frame",
                   ratio(self(Layer::kRxRequest), calls(Layer::kRxRequest)));
  out.emplace_back("core.control_frames_per_subrun", frames / subruns);
  out.emplace_back("core.delta_fallback_share",
                   ratio(reg(kDeltaFallbacks), frames));
  out.emplace_back("core.delta_anchor_misses", reg(kAnchorMiss));
  out.emplace_back("core.requests_dropped", reg(kRequestsDropped));
  out.emplace_back(
      "core.rx_recover_ns_per_recovered_msg",
      ratio(self(Layer::kRxRecoverRq) + self(Layer::kRxRecoverRsp),
            reg(kRecoveryMsgs)));
  out.emplace_back("core.recovery_rq_per_recovered_msg",
                   ratio(reg(kRecoveriesIssued), reg(kRecoveryMsgs)));
  out.emplace_back("core.recovery_cache_hit_share",
                   ratio(reg(kRecoveryCacheHits), reg(kRecoveriesServed)));
  for (std::size_t k = 0; k < bench::kFrameKinds; ++k) {
    out.emplace_back(std::string("wire.decode_ns_per_frame.") +
                         bench::kFrameKindNames[k],
                     replay.decode_ns[k]);
  }
  for (std::size_t k = 0; k < bench::kFrameKinds; ++k) {
    out.emplace_back(std::string("wire.encode_ns_per_frame.") +
                         bench::kFrameKindNames[k],
                     replay.encode_ns[k]);
  }
  out.emplace_back("wire.buffer_allocs_per_delivery",
                   ratio(static_cast<double>(s1.buffers.allocations -
                                             s0.buffers.allocations),
                         d));
  out.emplace_back("wire.bytes_copied_per_delivery",
                   ratio(static_cast<double>(s1.buffers.bytes_copied -
                                             s0.buffers.bytes_copied),
                         d));
  out.emplace_back("workload.ns_per_delivery", ratio(self(Layer::kWorkload), d));
  // Placeholder, filled in by the caller from the untraced episodes.
  out.emplace_back("trace.overhead_share", 0.0);
  // What the layers leave unexplained of the process's CPU time in the
  // window: time on threads the bench does not watch, or lost to the
  // gap between wall and CPU time on the sim's one thread.
  out.emplace_back("trace.residual_share", 1.0 - ratio(layer_sum, cpu));
  return res;
}


double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

template <typename Fn>
double median_of(const std::vector<EpisodeResult>& episodes, Fn&& f) {
  std::vector<double> v;
  v.reserve(episodes.size());
  for (const EpisodeResult& e : episodes) v.push_back(f(e));
  return median(std::move(v));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady|lossy|wide|loopback --seed N "
               "--seconds S --trace 0|1 [--smoke] [--source ID]\n",
               argv0);
  std::exit(2);
}

/// Units of the per-layer metrics, by name prefix or suffix.
const char* layer_unit(std::string_view name) {
  const auto ends = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (name.find("ns_per") != std::string_view::npos) return "ns";
  if (name.find("_us_") != std::string_view::npos) return "us";
  if (ends("_share")) return "ratio";
  if (ends("bytes_copied_per_delivery")) return "B";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  std::string source = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage(argv[0]);
      trace = t == "1" ? 1 : 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--source") {
      source = value();
    } else {
      usage(argv[0]);
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) found = &w;
  }
  if (found == nullptr || seconds <= 0 || trace < 0) usage(argv[0]);
  Workload w = *found;
  if (smoke) {
    w.warmup_rounds = kSmokeWarmupRounds;
    w.window_rounds = kSmokeWindowRounds;
  }

  std::printf("host: cpu=\"%s\" nproc=%u kernel=\"%s\" build=%s source=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              kernel().c_str(), URCGC_BENCH_BUILD_TYPE, source.c_str());

  // Episodes repeat until the next one would overrun --seconds; a run has
  // at least three untraced episodes (one in smoke mode) and, traced, at
  // least one traced episode, alternating with untraced ones.
  const std::size_t min_plain = smoke ? 1 : 3;
  const std::int64_t started = wall_ns();
  std::vector<EpisodeResult> plain;
  std::vector<EpisodeResult> traced;
  double longest_s = 0;
  for (int episode = 0;; ++episode) {
    const bool traced_episode = trace == 1 && episode % 2 == 1;
    const std::int64_t t0 = wall_ns();
    EpisodeResult r = run_episode(w, seed, traced_episode);
    longest_s = std::max(longest_s, static_cast<double>(wall_ns() - t0) / 1e9);
    if (!r.ok) {
      std::fprintf(stderr, "episode %d failed: %s\n", episode, r.error.c_str());
    }
    std::fprintf(stderr,
                 "episode %d%s: window %.4f s wall %.4f s cpu, %llu "
                 "deliveries, setup %.6f s, delay p50/p99 %.3f/%.3f ms, "
                 "release lag p50/p99 %.0f/%.0f us\n",
                 episode, traced_episode ? " (traced)" : "", r.wall_s, r.cpu_s,
                 static_cast<unsigned long long>(r.deliveries), r.setup_s,
                 r.delay_ms_p50, r.delay_ms_p99, r.lag_p50_us, r.lag_p99_us);
    (traced_episode ? traced : plain).push_back(std::move(r));
    const double elapsed = static_cast<double>(wall_ns() - started) / 1e9;
    const bool enough = plain.size() >= (trace == 1 ? 1 : min_plain) &&
                        (trace == 0 || !traced.empty());
    if (enough && (smoke || elapsed + longest_s > seconds)) break;
  }

  // --- Correctness ----------------------------------------------------------
  // The pacing guard judges the run: when most episodes fell behind the
  // cadence, the run measured an overloaded system and all of it fails.
  std::size_t unpaced = 0;
  std::size_t episodes = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const EpisodeResult& e : *set) {
      unpaced += e.paced ? 0 : 1;
      ++episodes;
    }
  }
  const bool run_paced = 2 * unpaced <= episodes;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const EpisodeResult& e : *set) {
      attempted += e.expected;
      correct = correct && e.ok;
      failed += e.ok && run_paced ? e.undelivered : e.expected;
    }
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  // The sim is deterministic per seed, so identical episodes must repeat
  // their counts exactly; a traced episode must not change what the
  // protocol does, only what it costs.
  if (!w.socket) {
    const EpisodeResult& ref = plain.front();
    for (const EpisodeResult& e : plain) {
      if (e.deliveries != ref.deliveries || e.control_bytes != ref.control_bytes ||
          e.allocs != ref.allocs || e.peak_heap_bytes != ref.peak_heap_bytes ||
          e.delay_rtd_p50 != ref.delay_rtd_p50 ||
          e.delay_rtd_p99 != ref.delay_rtd_p99) {
        std::fprintf(stderr,
                     "untraced episodes disagree on the count metrics: "
                     "deliveries %llu/%llu control bytes %llu/%llu allocs "
                     "%llu/%llu peak heap %lld/%lld\n",
                     static_cast<unsigned long long>(ref.deliveries),
                     static_cast<unsigned long long>(e.deliveries),
                     static_cast<unsigned long long>(ref.control_bytes),
                     static_cast<unsigned long long>(e.control_bytes),
                     static_cast<unsigned long long>(ref.allocs),
                     static_cast<unsigned long long>(e.allocs),
                     static_cast<long long>(ref.peak_heap_bytes),
                     static_cast<long long>(e.peak_heap_bytes));
        correct = false;
      }
    }
    for (const EpisodeResult& e : traced) {
      if (e.deliveries != ref.deliveries || e.control_bytes != ref.control_bytes ||
          e.delay_rtd_p99 != ref.delay_rtd_p99) {
        std::fprintf(stderr, "traced episode diverged from the untraced ones\n");
        correct = false;
      }
    }
  }

  // --- Report -----------------------------------------------------------------
  const EpisodeResult& first = plain.front();
  std::printf(
      "run: workload=%s seed=%llu trace=%d episodes=%zu+%zu window_rounds=%d "
      "delay_samples=%zu lag_p99_us=%.1f unpaced_episodes=%zu expected=%llu "
      "failed=%llu\n",
      w.name, static_cast<unsigned long long>(seed), trace, plain.size(),
      traced.size(), w.window_rounds, first.delay_samples,
      median_of(plain, [](const EpisodeResult& e) { return e.lag_p99_us; }),
      unpaced,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Timings come from the least-disturbed episode. On a shared host the
    // same episode's CPU time drifts by up to 2x within a minute as other
    // tenants come and go, and a descheduled thread stretches the delay
    // tail; interference only ever slows an episode down. So each timing
    // is the best value any episode of the run reached: the steadiest
    // estimate of what the code costs. Counts are exact on the sim,
    // medians on loopback.
    const auto per_delivery = [](double v, const EpisodeResult& e) {
      return ratio(v, static_cast<double>(e.deliveries));
    };
    const auto best = [&](auto&& f) {
      double v = f(plain.front());
      for (const EpisodeResult& e : plain) v = std::min(v, f(e));
      return v;
    };
    metrics = {
        {"deliveries_per_s",
         -best([](const EpisodeResult& e) {
           return -ratio(static_cast<double>(e.deliveries), e.wall_s);
         }),
         "1/s"},
        {"cpu_us_per_delivery",
         best([&](const EpisodeResult& e) {
           return per_delivery(e.cpu_s * 1e6, e);
         }),
         "us"},
        // On loopback the cadence sets the median delay, and a scheduling
        // hiccup can shorten it as well as stretch it: a median there.
        {"delay_ms_p50",
         w.socket ? median_of(plain, [](const EpisodeResult& e) { return e.delay_ms_p50; })
                  : best([](const EpisodeResult& e) { return e.delay_ms_p50; }),
         "ms"},
        {"delay_ms_p99",
         best([](const EpisodeResult& e) { return e.delay_ms_p99; }), "ms"},
        {"delay_rtd_p50",
         median_of(plain, [](const EpisodeResult& e) { return e.delay_rtd_p50; }),
         "rtd"},
        {"delay_rtd_p99",
         median_of(plain, [](const EpisodeResult& e) { return e.delay_rtd_p99; }),
         "rtd"},
        {"control_bytes_per_delivery",
         median_of(plain,
                   [&](const EpisodeResult& e) {
                     return per_delivery(static_cast<double>(e.control_bytes), e);
                   }),
         "B"},
        {"heap_allocs_per_delivery",
         median_of(plain,
                   [&](const EpisodeResult& e) {
                     return per_delivery(static_cast<double>(e.allocs), e);
                   }),
         "count"},
        {"peak_heap_mb",
         median_of(plain,
                   [](const EpisodeResult& e) {
                     return static_cast<double>(e.peak_heap_bytes) / (1 << 20);
                   }),
         "MiB"},
        {"setup_s",
         best([](const EpisodeResult& e) { return e.setup_s; }), "s"},
        {"delivered_share",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    // Tracing overhead: traced over untraced window time, minus 1 — wall
    // time on the sim, CPU time on loopback, whose wall time the cadence
    // fixes.
    const auto window_time = [&](const EpisodeResult& e) {
      return w.socket ? e.cpu_s : e.wall_s;
    };
    const double overhead =
        ratio(median_of(traced, window_time), median_of(plain, window_time)) -
        1.0;
    for (std::size_t i = 0; i < traced.front().layers.size(); ++i) {
      const std::string& name = traced.front().layers[i].first;
      double value = median_of(
          traced, [i](const EpisodeResult& e) { return e.layers[i].second; });
      if (name == "trace.overhead_share") value = overhead;
      metrics.push_back({name, value, layer_unit(name)});
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json_escape(metrics[i].name).c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
