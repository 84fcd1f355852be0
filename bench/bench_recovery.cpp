// Recovery-path bench with machine-readable output.
//
// Sweeps group size x sustained omission rate x recovery batch mode,
// measuring what the hardened recovery layer buys: round-trips per
// recovered message (batched range recovery vs the one-mid-per-request
// baseline, max_recover_batch = 1), recovery-response bytes per recovered
// message, gap-open -> gap-closed latency percentiles (from the
// core.recovery_latency_rtd histogram), serve-cache hit rate, and the
// exact occupancy high-water marks of the bounded buffers. Every point
// runs with the flow-control knobs engaged (waiting cap 4n, inbox cap n,
// history threshold 8n, backoff on) so the bench exercises the same
// envelope the sustained-omission checker family does.
//
// A join leg rides along: the same envelope with one late joiner whose
// snapshot catch-up reuses the batched recovery path, measuring batches,
// replayed messages, and admitted->member latency percentiles (from the
// core.join_catchup_latency_rtd histogram) — the cost of bringing a fresh
// member level while the group keeps generating.
//
// Output: a human-readable table on stdout and, with --json=FILE, the
// BENCH_recovery.json document whose schema PERFORMANCE.md documents
// field by field (validated in CI by tools/check_bench_schema.py).
//
// --soak switches to the gate mode CI's nightly runs: one long run per
// backend (4x the standard message volume) at the paper's Figure 6
// operating point (omission 1/500), scanning the per-round occupancy
// gauges and the exact peaks against the configured caps. Any breach —
// or any correctness violation — exits non-zero.
//
// Usage:
//   bench_recovery [--json=FILE] [--quick] [--messages=N] [--seed=S]
//   bench_recovery --soak [--messages=N] [--seed=S] [--backend=sim|threads|all]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "obs/registry.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace urcgc;

constexpr int kSchemaVersion = 1;

struct Options {
  std::string json_path;
  bool quick = false;
  bool soak = false;
  std::string backend = "all";  // soak mode only; the sweep runs on sim
  std::int64_t messages = 120;
  std::uint64_t seed = 1;
};

struct RunResult {
  std::string backend;
  int n = 0;
  double omission = 0.0;
  int batch = 0;  // max_recover_batch
  std::uint64_t seed = 0;
  std::uint64_t generated = 0;
  std::uint64_t recoveries_issued = 0;
  std::uint64_t recovery_batches = 0;
  std::uint64_t recovery_msgs = 0;
  std::uint64_t recovery_continuations = 0;
  std::uint64_t recovery_budget_exhausted = 0;
  std::uint64_t recovery_cache_hits = 0;
  std::uint64_t recover_rsp_bytes = 0;
  int joins = 0;  // configured joiners (the join leg runs with 1)
  int joins_admitted = 0;
  std::uint64_t join_catchup_batches = 0;
  std::uint64_t join_catchup_msgs = 0;
  double join_latency_p50_rtd = 0.0;
  double join_latency_p99_rtd = 0.0;
  double latency_p50_rtd = 0.0;
  double latency_p99_rtd = 0.0;
  std::size_t waiting_peak = 0;
  std::size_t inbox_peak = 0;
  std::size_t history_peak = 0;
  double wall_seconds = 0.0;
  bool ok = true;

  [[nodiscard]] double roundtrips_per_recovered() const {
    if (recovery_msgs == 0) return 0.0;
    return static_cast<double>(recoveries_issued) /
           static_cast<double>(recovery_msgs);
  }
  [[nodiscard]] double bytes_per_recovered() const {
    if (recovery_msgs == 0) return 0.0;
    return static_cast<double>(recover_rsp_bytes) /
           static_cast<double>(recovery_msgs);
  }
};

/// The bench's common envelope: sustained omission (no window), every
/// flow-control knob engaged — the same shape as the checker's
/// sustained-omission family and the nightly soak.
harness::ExperimentConfig soak_envelope(int n, double omission,
                                        std::int64_t messages,
                                        std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.protocol.n = n;
  const auto un = static_cast<std::size_t>(n);
  config.protocol.waiting_cap = 4 * un;
  config.protocol.inbox_cap = un;
  config.protocol.history_threshold = 8 * un;  // Figure 6 b)
  config.protocol.recovery_backoff_base = 1;
  config.workload.load = 0.8;
  config.workload.total_messages = messages;
  config.workload.cross_dep_prob = 0.2;
  config.faults.omission_prob = omission;
  config.faults.window_end_rtd = -1.0;  // sustained: the storm never closes
  config.seed = seed;
  config.limit_rtd = 8000;
  return config;
}

RunResult run_point(const Options& options, bool threads, int n,
                    double omission, int batch, int joins = 0) {
  const auto start = std::chrono::steady_clock::now();
  harness::ExperimentConfig config =
      soak_envelope(n, omission, options.messages, options.seed);
  config.protocol.max_recover_batch = batch;
  // The join leg: joiners request admission once histories are warm, so
  // the snapshot catch-up has real traffic to replay.
  for (int j = 0; j < joins; ++j) {
    config.join_rtds.push_back(6.0 + 2.0 * j);
  }
  config.backend =
      threads ? harness::Backend::kThreads : harness::Backend::kSim;
  config.thread_tick_ns = 0;
  obs::Registry registry(n + joins);
  config.metrics = &registry;
  const auto report = harness::Experiment(config).run();

  RunResult result;
  result.backend = threads ? "threads" : "sim";
  result.n = n;
  result.omission = omission;
  result.batch = batch;
  result.joins = joins;
  result.joins_admitted = static_cast<int>(report.joins.size());
  result.seed = options.seed;
  result.generated = report.generated;
  for (const auto& p : report.processes) {
    result.recoveries_issued += p.recoveries_issued;
    result.recovery_batches += p.recovery_batches;
    result.recovery_msgs += p.recovery_msgs;
    result.recovery_continuations += p.recovery_continuations;
    result.recovery_budget_exhausted += p.recovery_budget_exhausted;
    result.recovery_cache_hits += p.recovery_cache_hits;
    result.join_catchup_batches += p.join_catchup_batches;
    result.join_catchup_msgs += p.join_catchup_msgs;
    result.waiting_peak = std::max(result.waiting_peak, p.waiting_peak);
    result.inbox_peak = std::max(result.inbox_peak, p.inbox_peak);
    result.history_peak = std::max(result.history_peak, p.history_peak);
  }
  result.recover_rsp_bytes =
      report.traffic.bytes(stats::MsgClass::kRecoverRsp);
  const obs::Metric hist = registry.find("core.recovery_latency_rtd");
  if (hist.valid()) {
    const obs::HistogramSnapshot snap = registry.histogram_merged(hist);
    result.latency_p50_rtd = snap.p50;
    result.latency_p99_rtd = snap.p99;
  }
  const obs::Metric join_hist =
      registry.find("core.join_catchup_latency_rtd");
  if (join_hist.valid()) {
    const obs::HistogramSnapshot snap = registry.histogram_merged(join_hist);
    result.join_latency_p50_rtd = snap.p50;
    result.join_latency_p99_rtd = snap.p99;
  }
  result.ok = report.all_ok() && report.quiescent &&
              report.workload_exhausted &&
              result.joins_admitted == joins &&
              (config.protocol.waiting_cap == 0 ||
               result.waiting_peak <= config.protocol.waiting_cap) &&
              (config.protocol.inbox_cap == 0 ||
               result.inbox_peak <= config.protocol.inbox_cap);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void write_json(const Options& options,
                const std::vector<RunResult>& results) {
  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options.json_path.c_str());
    std::exit(1);
  }
  char date[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": %d,\n", kSchemaVersion);
  std::fprintf(f, "  \"bench\": \"bench_recovery\",\n");
  std::fprintf(f, "  \"generated_at\": \"%s\",\n", date);
  std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
  std::fprintf(f, "  \"messages_per_run\": %lld,\n",
               static_cast<long long>(options.messages));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"backend\": \"%s\",\n", r.backend.c_str());
    std::fprintf(f, "      \"n\": %d,\n", r.n);
    std::fprintf(f, "      \"omission\": %.4f,\n", r.omission);
    std::fprintf(f, "      \"max_recover_batch\": %d,\n", r.batch);
    std::fprintf(f, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(r.seed));
    std::fprintf(f, "      \"messages_generated\": %llu,\n",
                 static_cast<unsigned long long>(r.generated));
    std::fprintf(f, "      \"recoveries_issued\": %llu,\n",
                 static_cast<unsigned long long>(r.recoveries_issued));
    std::fprintf(f, "      \"recovery_batches\": %llu,\n",
                 static_cast<unsigned long long>(r.recovery_batches));
    std::fprintf(f, "      \"recovered_messages\": %llu,\n",
                 static_cast<unsigned long long>(r.recovery_msgs));
    std::fprintf(f, "      \"recovery_continuations\": %llu,\n",
                 static_cast<unsigned long long>(r.recovery_continuations));
    std::fprintf(f, "      \"recovery_budget_exhausted\": %llu,\n",
                 static_cast<unsigned long long>(r.recovery_budget_exhausted));
    std::fprintf(f, "      \"recovery_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(r.recovery_cache_hits));
    std::fprintf(f, "      \"recover_rsp_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.recover_rsp_bytes));
    std::fprintf(f, "      \"roundtrips_per_recovered\": %.3f,\n",
                 r.roundtrips_per_recovered());
    std::fprintf(f, "      \"bytes_per_recovered\": %.1f,\n",
                 r.bytes_per_recovered());
    std::fprintf(f, "      \"recovery_latency_rtd_p50\": %.4f,\n",
                 r.latency_p50_rtd);
    std::fprintf(f, "      \"recovery_latency_rtd_p99\": %.4f,\n",
                 r.latency_p99_rtd);
    std::fprintf(f, "      \"joins\": %d,\n", r.joins);
    std::fprintf(f, "      \"joins_admitted\": %d,\n", r.joins_admitted);
    std::fprintf(f, "      \"join_catchup_batches\": %llu,\n",
                 static_cast<unsigned long long>(r.join_catchup_batches));
    std::fprintf(f, "      \"join_catchup_msgs\": %llu,\n",
                 static_cast<unsigned long long>(r.join_catchup_msgs));
    std::fprintf(f, "      \"join_catchup_latency_rtd_p50\": %.4f,\n",
                 r.join_latency_p50_rtd);
    std::fprintf(f, "      \"join_catchup_latency_rtd_p99\": %.4f,\n",
                 r.join_latency_p99_rtd);
    std::fprintf(f, "      \"waiting_peak\": %zu,\n", r.waiting_peak);
    std::fprintf(f, "      \"inbox_peak\": %zu,\n", r.inbox_peak);
    std::fprintf(f, "      \"history_peak\": %zu,\n", r.history_peak);
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"ok\": %s\n", r.ok ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu runs)\n", options.json_path.c_str(),
              results.size());
}

int run_sweep(const Options& options) {
  std::vector<int> group_sizes{6, 10};
  std::vector<double> omissions{0.002, 0.01, 0.02};
  if (options.quick) {
    group_sizes = {6};
    omissions = {0.01};
  }
  const std::vector<int> batches{1, 8};  // one-mid baseline vs batched

  std::printf(
      "Recovery sweep — %lld messages per point, seed %llu, caps engaged\n\n",
      static_cast<long long>(options.messages),
      static_cast<unsigned long long>(options.seed));

  harness::Table table({"n", "omission", "batch", "rq/recovered",
                        "B/recovered", "lat p50", "lat p99", "contins",
                        "cache hits", "wait peak", "inbox peak"});
  std::vector<RunResult> results;
  bool all_ok = true;
  for (int n : group_sizes) {
    for (double omission : omissions) {
      for (int batch : batches) {
        RunResult r = run_point(options, /*threads=*/false, n, omission,
                                batch);
        if (!r.ok) {
          std::fprintf(stderr, "VALIDATION FAILED: n=%d omission=%.4f "
                               "batch=%d\n",
                       n, omission, batch);
          all_ok = false;
        }
        table.row({harness::Table::num(n, 0),
                   harness::Table::num(omission, 4),
                   harness::Table::num(batch, 0),
                   harness::Table::num(r.roundtrips_per_recovered(), 3),
                   harness::Table::num(r.bytes_per_recovered(), 1),
                   harness::Table::num(r.latency_p50_rtd, 2),
                   harness::Table::num(r.latency_p99_rtd, 2),
                   harness::Table::num(
                       static_cast<double>(r.recovery_continuations), 0),
                   harness::Table::num(
                       static_cast<double>(r.recovery_cache_hits), 0),
                   harness::Table::num(
                       static_cast<double>(r.waiting_peak), 0),
                   harness::Table::num(
                       static_cast<double>(r.inbox_peak), 0)});
        results.push_back(std::move(r));
      }
    }
  }
  table.print();

  // Headline the acceptance criterion tracks: over the sweep, batched
  // recovery must not spend more round-trips per recovered message than
  // the one-mid baseline — and at the heavier rates it should spend fewer.
  double baseline_rq = 0.0, batched_rq = 0.0;
  std::uint64_t baseline_recovered = 0, batched_recovered = 0;
  for (const RunResult& r : results) {
    if (r.recovery_msgs == 0) continue;
    if (r.batch == 1) {
      baseline_rq += static_cast<double>(r.recoveries_issued);
      baseline_recovered += r.recovery_msgs;
    } else {
      batched_rq += static_cast<double>(r.recoveries_issued);
      batched_recovered += r.recovery_msgs;
    }
  }
  if (baseline_recovered > 0 && batched_recovered > 0) {
    const double before =
        baseline_rq / static_cast<double>(baseline_recovered);
    const double after = batched_rq / static_cast<double>(batched_recovered);
    std::printf(
        "\nheadline: %.3f -> %.3f round-trips/recovered message "
        "(one-mid -> batched, requirement batched <= one-mid: %s)\n",
        before, after, after <= before ? "OK" : "FAIL");
    if (after > before) all_ok = false;
  }

  // Join leg: one late joiner per point, snapshot catch-up over the same
  // batched recovery path, with and without the sustained storm.
  std::printf("\nJoin catch-up leg — one joiner at 6 rtd, batch 8\n\n");
  harness::Table join_table({"n", "omission", "admitted", "batches",
                             "msgs replayed", "join lat p50",
                             "join lat p99"});
  std::vector<double> join_omissions{0.0, 0.01};
  if (options.quick) join_omissions = {0.01};
  for (int n : group_sizes) {
    for (double omission : join_omissions) {
      RunResult r = run_point(options, /*threads=*/false, n, omission,
                              /*batch=*/8, /*joins=*/1);
      if (!r.ok) {
        std::fprintf(stderr,
                     "JOIN LEG VALIDATION FAILED: n=%d omission=%.4f\n", n,
                     omission);
        all_ok = false;
      }
      join_table.row({harness::Table::num(n, 0),
                      harness::Table::num(omission, 4),
                      harness::Table::num(r.joins_admitted, 0),
                      harness::Table::num(
                          static_cast<double>(r.join_catchup_batches), 0),
                      harness::Table::num(
                          static_cast<double>(r.join_catchup_msgs), 0),
                      harness::Table::num(r.join_latency_p50_rtd, 2),
                      harness::Table::num(r.join_latency_p99_rtd, 2)});
      results.push_back(std::move(r));
    }
  }
  join_table.print();

  if (!options.json_path.empty()) write_json(options, results);
  return all_ok ? 0 : 1;
}

/// Gate mode for CI's nightly: one 4x-length run per backend at the
/// paper's Figure 6 operating point (omission 1/500), with every cap set.
/// Verifies the correctness clauses, then checks occupancy two ways: the
/// exact high-water marks against the hard caps, and every per-round
/// gauge sample against its cap (history against threshold + n slack —
/// the threshold is a soft target: incoming traffic already under way may
/// overshoot it before flow control bites).
int run_soak(const Options& options) {
  const int n = 10;
  const double omission = 1.0 / 500.0;
  const std::int64_t messages = options.messages * 4;

  std::vector<std::string> backends{"sim", "threads"};
  if (options.backend != "all") backends = {options.backend};

  bool all_ok = true;
  for (const std::string& backend : backends) {
    const bool threads = backend == "threads";
    harness::ExperimentConfig config =
        soak_envelope(n, omission, messages, options.seed);
    config.backend =
        threads ? harness::Backend::kThreads : harness::Backend::kSim;
    config.thread_tick_ns = 0;
    obs::Registry registry(n);
    config.metrics = &registry;
    const auto report = harness::Experiment(config).run();

    bool ok = report.all_ok() && report.quiescent &&
              report.workload_exhausted;
    if (!ok) {
      std::fprintf(stderr, "%s: correctness/liveness FAILED (%s)\n",
                   backend.c_str(),
                   report.violations.empty()
                       ? "no violation message"
                       : report.violations.front().c_str());
    }

    // Exact peaks against the hard caps.
    for (std::size_t p = 0; p < report.processes.size(); ++p) {
      const auto& state = report.processes[p];
      if (state.waiting_peak > config.protocol.waiting_cap) {
        std::fprintf(stderr, "%s: p%zu waiting peak %zu > cap %zu\n",
                     backend.c_str(), p, state.waiting_peak,
                     config.protocol.waiting_cap);
        ok = false;
      }
      if (state.inbox_peak > config.protocol.inbox_cap) {
        std::fprintf(stderr, "%s: p%zu inbox peak %zu > cap %zu\n",
                     backend.c_str(), p, state.inbox_peak,
                     config.protocol.inbox_cap);
        ok = false;
      }
    }

    // Per-round gauge samples against the caps.
    const obs::Metric g_wait = registry.find("proc.waiting_depth");
    const obs::Metric g_inbox = registry.find("proc.inbox_size");
    const obs::Metric g_hist = registry.find("proc.history_len");
    const double hist_limit =
        static_cast<double>(config.protocol.history_threshold + n);
    std::uint64_t scanned = 0;
    for (const obs::Sample& sample : registry.samples()) {
      double limit = -1.0;
      const char* what = nullptr;
      if (sample.metric.id == g_wait.id) {
        limit = static_cast<double>(config.protocol.waiting_cap);
        what = "waiting depth";
      } else if (sample.metric.id == g_inbox.id) {
        limit = static_cast<double>(config.protocol.inbox_cap);
        what = "inbox size";
      } else if (sample.metric.id == g_hist.id) {
        limit = hist_limit;
        what = "history length";
      } else {
        continue;
      }
      ++scanned;
      if (sample.value > limit) {
        std::fprintf(stderr, "%s: p%d %s sample %.0f > limit %.0f at t=%lld\n",
                     backend.c_str(), sample.process, what, sample.value,
                     limit, static_cast<long long>(sample.at));
        ok = false;
      }
    }

    std::printf("%s soak: %llu generated, %zu occupancy samples scanned, "
                "end %.0f rtd — %s\n",
                backend.c_str(),
                static_cast<unsigned long long>(report.generated),
                static_cast<std::size_t>(scanned), report.end_rtd,
                ok ? "OK" : "FAIL");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--soak") {
      options.soak = true;
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* backend = value("--backend=")) {
      options.backend = backend;
    } else if (const char* messages = value("--messages=")) {
      options.messages = std::atoll(messages);
    } else if (const char* seed = value("--seed=")) {
      options.seed = std::strtoull(seed, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown argument %s\n"
                   "usage: bench_recovery [--json=FILE] [--quick] "
                   "[--soak] [--backend=sim|threads|all] [--messages=N] "
                   "[--seed=S]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  return options.soak ? run_soak(options) : run_sweep(options);
}
