// Broadcast fan-out throughput bench with machine-readable output.
//
// Sweeps group size n x payload size x runtime backend for urcgc and the
// CBCAST / Psync baselines on a fault-free subnet, measuring wall-clock
// throughput, delivery-delay percentiles and the wire-buffer accounting
// (allocations and bytes physically copied per delivered message). Every
// run uses the zero-copy fan-out and, on the threaded and socket backends,
// the round-parity mailboxes, so each row's `payload_mode` is "shared" and
// its `mailboxes` is "round" ("none" on the simulator); the fields stay in
// the schema-version-1 document.
//
// Output: a human-readable table on stdout and, with --json=FILE, the
// BENCH_throughput.json document whose schema PERFORMANCE.md documents
// field by field (validated in CI by tools/check_bench_schema.py).
//
// Usage:
//   bench_throughput [--json=FILE] [--quick]
//                    [--backend=sim|threads|socket|all]
//                    [--protocol=urcgc|cbcast|psync|all] [--messages=N]
//                    [--seed=S]
//
// --quick restricts the sweep to its smallest point (n=10, 64 B, sim) —
// the CI smoke configuration. --backend=socket runs the dedicated
// real-UDP loopback sweep (urcgc only); with --quick it is a single
// n=10 / 64 B point.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "baselines/runner.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace {

using namespace urcgc;

constexpr int kSchemaVersion = 1;

struct Options {
  std::string json_path;
  bool quick = false;
  std::string backend = "all";
  std::string protocol = "all";
  std::int64_t messages = 150;
  std::uint64_t seed = 1;
};

struct RunResult {
  std::string protocol;
  std::string backend;
  int pipeline_k = 1;         // Config::max_subruns_in_flight
  std::int64_t round_us = 0;  // paced round cadence; 0 = free-running
  int n = 0;
  std::size_t payload_bytes = 0;
  std::uint64_t seed = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  double wall_seconds = 0.0;
  double delay_p50_rtd = 0.0;
  double delay_p99_rtd = 0.0;
  wire::BufferStats buffers;
  bool ok = true;

  [[nodiscard]] double msgs_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(generated) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double deliveries_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(delivered) / wall_seconds
                              : 0.0;
  }
  /// Post-serialization cost of moving payload bytes to n-1 destinations:
  /// every byte a buffer materialization touched, amortised per delivery.
  [[nodiscard]] double bytes_copied_per_delivered_message() const {
    if (delivered == 0) return 0.0;
    return static_cast<double>(buffers.bytes_allocated +
                               buffers.bytes_copied) /
           static_cast<double>(delivered);
  }
  [[nodiscard]] double allocations_per_message() const {
    if (generated == 0) return 0.0;
    return static_cast<double>(buffers.allocations) /
           static_cast<double>(generated);
  }
};

template <typename Fn>
RunResult timed(Fn&& body) {
  const auto start = std::chrono::steady_clock::now();
  RunResult result = body();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

/// One urcgc measurement point. The classic fan-out matrix uses the
/// defaults (k=1, full grace); the pipelined sweep sets pipeline_k /
/// grace_subruns / messages explicitly so the paced and pipelined legs
/// differ in exactly one knob at a time.
struct UrcgcPoint {
  bool threads = false;
  /// Real UDP loopback backend (rt::SocketRuntime); implies the threaded
  /// execution model underneath.
  bool socket = false;
  int n = 0;
  std::size_t payload = 64;
  int pipeline_k = 1;
  int grace_subruns = 8;
  std::int64_t messages = 0;  // 0: Options::messages
  // Round cadence in microseconds (a round is 10 ticks); 0 free-runs the
  // backend. The pipelined A/B paces its threaded legs so the run models a
  // deployment where the round length is set by the group rtd, not by this
  // host's CPU: at k=1 the coordinator cadence then bounds throughput and
  // the host idles between rounds, which is exactly the slack k>1 fills.
  std::int64_t round_us = 0;
};

RunResult run_urcgc(const Options& options, const UrcgcPoint& point) {
  return timed([&] {
    harness::ExperimentConfig config;
    config.protocol.n = point.n;
    config.protocol.max_subruns_in_flight = point.pipeline_k;
    config.workload.load = 1.0;
    config.workload.burst = point.pipeline_k;
    config.workload.total_messages =
        point.messages > 0 ? point.messages : options.messages;
    config.workload.cross_dep_prob = 0.0;
    config.workload.payload_bytes = point.payload;
    config.backend = point.socket    ? harness::Backend::kSocket
                     : point.threads ? harness::Backend::kThreads
                                     : harness::Backend::kSim;
    // round_us == 0 free-runs (measures work); otherwise rounds are paced
    // at the given cadence (10 ticks per round).
    config.thread_tick_ns = point.round_us * 100;
    config.grace_subruns = point.grace_subruns;
    config.seed = options.seed;
    config.limit_rtd = 4000;
    const auto report = harness::Experiment(config).run();
    RunResult result;
    result.round_us = point.round_us;
    result.generated = report.generated;
    result.delivered = report.processed_events;
    result.delay_p50_rtd = report.delay_rtd.p50;
    result.delay_p99_rtd = report.delay_rtd.p99;
    result.buffers = report.buffers;
    result.ok = report.all_ok() && report.workload_exhausted;
    return result;
  });
}

RunResult run_baseline(const Options& options, bool cbcast, bool threads,
                       int n, std::size_t payload) {
  return timed([&] {
    baselines::BaselineConfig config;
    config.n = n;
    config.workload.load = 1.0;
    config.workload.total_messages = options.messages;
    config.workload.cross_dep_prob = 0.0;
    config.workload.payload_bytes = payload;
    config.backend =
        threads ? baselines::Backend::kThreads : baselines::Backend::kSim;
    config.thread_tick_ns = 0;
    config.seed = options.seed;
    config.limit_rtd = 4000;
    const auto report =
        cbcast ? baselines::run_cbcast(config) : baselines::run_psync(config);
    RunResult result;
    result.generated = report.generated;
    result.delivered = report.delivered_events;
    result.delay_p50_rtd = report.delay_rtd.p50;
    result.delay_p99_rtd = report.delay_rtd.p99;
    result.buffers = report.buffers;
    result.ok = report.causal_order_ok;
    return result;
  });
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
  std::fprintf(f, "  \"bench\": \"bench_throughput\",\n");
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
    std::fprintf(f, "      \"protocol\": \"%s\",\n", r.protocol.c_str());
    std::fprintf(f, "      \"backend\": \"%s\",\n", r.backend.c_str());
    std::fprintf(f, "      \"payload_mode\": \"shared\",\n");
    std::fprintf(f, "      \"pipeline_k\": %d,\n", r.pipeline_k);
    std::fprintf(f, "      \"mailboxes\": \"%s\",\n",
                 r.backend == "sim" ? "none" : "round");
    std::fprintf(f, "      \"round_us\": %lld,\n",
                 static_cast<long long>(r.round_us));
    std::fprintf(f, "      \"n\": %d,\n", r.n);
    std::fprintf(f, "      \"payload_bytes\": %zu,\n", r.payload_bytes);
    std::fprintf(f, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(r.seed));
    std::fprintf(f, "      \"messages_generated\": %llu,\n",
                 static_cast<unsigned long long>(r.generated));
    std::fprintf(f, "      \"messages_delivered\": %llu,\n",
                 static_cast<unsigned long long>(r.delivered));
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"msgs_per_sec\": %.1f,\n", r.msgs_per_sec());
    std::fprintf(f, "      \"deliveries_per_sec\": %.1f,\n",
                 r.deliveries_per_sec());
    std::fprintf(f, "      \"delivery_delay_rtd_p50\": %.4f,\n",
                 r.delay_p50_rtd);
    std::fprintf(f, "      \"delivery_delay_rtd_p99\": %.4f,\n",
                 r.delay_p99_rtd);
    std::fprintf(f, "      \"buffer_allocations\": %llu,\n",
                 static_cast<unsigned long long>(r.buffers.allocations));
    std::fprintf(f, "      \"buffer_bytes_allocated\": %llu,\n",
                 static_cast<unsigned long long>(r.buffers.bytes_allocated));
    std::fprintf(f, "      \"buffer_bytes_copied\": %llu,\n",
                 static_cast<unsigned long long>(r.buffers.bytes_copied));
    std::fprintf(f, "      \"bytes_copied_per_delivered_message\": %.2f,\n",
                 r.bytes_copied_per_delivered_message());
    std::fprintf(f, "      \"allocations_per_message\": %.2f,\n",
                 r.allocations_per_message());
    std::fprintf(f, "      \"ok\": %s\n", r.ok ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu runs)\n", options.json_path.c_str(),
              results.size());
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
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* backend = value("--backend=")) {
      options.backend = backend;
    } else if (const char* protocol = value("--protocol=")) {
      options.protocol = protocol;
    } else if (const char* messages = value("--messages=")) {
      options.messages = std::atoll(messages);
    } else if (const char* seed = value("--seed=")) {
      options.seed = std::strtoull(seed, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown argument %s\n"
                   "usage: bench_throughput [--json=FILE] [--quick] "
                   "[--backend=sim|threads|socket|all] "
                   "[--protocol=urcgc|cbcast|psync|all] [--messages=N] "
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

  std::vector<int> group_sizes{10, 50, 200};
  std::vector<std::size_t> payloads{64, 1024, 16384};
  std::vector<std::string> backends{"sim", "threads"};
  std::vector<std::string> protocols{"urcgc", "cbcast", "psync"};
  if (options.quick) {
    group_sizes = {10};
    payloads = {64};
    backends = {"sim"};
  }
  if (options.backend != "all") backends = {options.backend};
  if (options.protocol != "all") protocols = {options.protocol};
  // The socket backend runs its own dedicated sweep below (urcgc only, real
  // UDP over loopback) rather than joining the full protocol matrix.
  const bool socket_sweep =
      std::find(backends.begin(), backends.end(), "socket") !=
          backends.end() ||
      (options.backend == "all" && !options.quick);
  backends.erase(std::remove(backends.begin(), backends.end(), "socket"),
                 backends.end());

  std::printf(
      "Broadcast fan-out throughput — %lld messages per point, seed %llu\n\n",
      static_cast<long long>(options.messages),
      static_cast<unsigned long long>(options.seed));

  harness::Table table({"protocol", "backend", "k", "round", "n", "payload",
                        "msgs/s", "delivs/s", "p50 rtd", "p99 rtd",
                        "copied B/msg", "allocs/msg"});
  std::vector<RunResult> results;
  bool all_ok = true;
  const auto emit = [&](RunResult result) {
    if (!result.ok) {
      std::fprintf(stderr,
                   "VALIDATION FAILED: %s/%s n=%d payload=%zu k=%d\n",
                   result.protocol.c_str(), result.backend.c_str(), result.n,
                   result.payload_bytes, result.pipeline_k);
      all_ok = false;
    }
    table.row({result.protocol, result.backend,
               harness::Table::num(result.pipeline_k, 0),
               result.round_us > 0
                   ? harness::Table::num(
                         static_cast<double>(result.round_us) / 1000.0, 0) +
                         "ms"
                   : "free",
               harness::Table::num(result.n, 0),
               harness::Table::num(static_cast<double>(result.payload_bytes),
                                   0),
               harness::Table::num(result.msgs_per_sec(), 0),
               harness::Table::num(result.deliveries_per_sec(), 0),
               harness::Table::num(result.delay_p50_rtd, 2),
               harness::Table::num(result.delay_p99_rtd, 2),
               harness::Table::num(
                   result.bytes_copied_per_delivered_message(), 1),
               harness::Table::num(result.allocations_per_message(), 1)});
    results.push_back(std::move(result));
  };

  for (const std::string& backend : backends) {
    const bool threads = backend == "threads";
    for (const std::string& protocol : protocols) {
      for (int n : group_sizes) {
        for (std::size_t payload : payloads) {
          RunResult result =
              protocol == "urcgc"
                  ? run_urcgc(options, UrcgcPoint{.threads = threads,
                                                  .n = n,
                                                  .payload = payload})
                  : run_baseline(options, protocol == "cbcast", threads, n,
                                 payload);
          result.protocol = protocol;
          result.backend = backend;
          result.n = n;
          result.payload_bytes = payload;
          result.seed = options.seed;
          emit(std::move(result));
        }
      }
    }
  }

  // Socket-backend sweep (urcgc only): the same fan-out workload over real
  // UDP datagrams on loopback (rt::SocketRuntime), free-running so the
  // numbers measure datagram-path work, not pacing. Kept out of the main
  // matrix: the interesting comparison is socket vs threads at the same
  // point, and the baselines add nothing to it.
  if (socket_sweep &&
      (options.protocol == "all" || options.protocol == "urcgc")) {
    std::vector<int> socket_ns{10, 50};
    std::vector<std::size_t> socket_payloads{64, 16384};
    if (options.quick) {
      socket_ns = {10};
      socket_payloads = {64};
    }
    for (int n : socket_ns) {
      for (std::size_t payload : socket_payloads) {
        RunResult result = run_urcgc(
            options, UrcgcPoint{.socket = true, .n = n, .payload = payload});
        result.protocol = "urcgc";
        result.backend = "socket";
        result.n = n;
        result.payload_bytes = payload;
        result.seed = options.seed;
        emit(std::move(result));
      }
    }
  }

  // Pipelined delivery sweep (urcgc only): k subruns in flight vs the paced
  // seed path, same offered volume per point (64 msgs/process so the round
  // count, not the workload tail, dominates) and a short 2-subrun grace so
  // fixed drain rounds do not flatten the k ratio. The threaded legs are
  // paced at a per-n round cadence modelling a deployment where the round
  // length tracks the group rtd (and comfortably fits the k=4 per-round
  // work on this host): both legs run the same cadence, so k=1 throughput
  // is bounded by the coordinator cadence while k>1 fills the rounds with
  // in-flight subruns. Simulator legs free-run in virtual time and report
  // per-message compute cost instead.
  RunResult paced_head;      // threads, n_head, k=1
  RunResult pipelined_head;  // threads, n_head, k=4
  if (options.protocol == "all" || options.protocol == "urcgc") {
    const std::vector<int> depths{1, 2, 4};
    const int n_head = group_sizes.back();
    const auto round_cadence_us = [](int n) {
      return std::max<std::int64_t>(5000, 20LL * n * n);
    };
    for (const std::string& backend : backends) {
      const bool threads = backend == "threads";
      for (int n : group_sizes) {
        for (int k : depths) {
          UrcgcPoint point{.threads = threads,
                           .n = n,
                           .pipeline_k = k,
                           .grace_subruns = 2,
                           .messages = 64LL * n,
                           .round_us = threads ? round_cadence_us(n) : 0};
          RunResult result = run_urcgc(options, point);
          result.protocol = "urcgc";
          result.backend = backend;
          result.pipeline_k = k;
          result.n = n;
          result.payload_bytes = point.payload;
          result.seed = options.seed;
          if (threads && n == n_head) {
            if (k == 1) paced_head = result;
            if (k == 4) pipelined_head = result;
          }
          emit(std::move(result));
        }
      }
    }
  }
  table.print();

  // Pipelining headline: msgs/s and p50 delay at the largest threaded
  // point, k=4 vs the paced k=1 leg of the same sweep.
  if (paced_head.n > 0 && pipelined_head.n > 0 &&
      paced_head.msgs_per_sec() > 0.0) {
    const double speedup =
        pipelined_head.msgs_per_sec() / paced_head.msgs_per_sec();
    std::printf(
        "headline (urcgc, threads, n=%d, %lldms rounds): %.0f -> %.0f "
        "msgs/s at k=1 -> k=4 (%.2fx, requirement >= 2x: %s); p50 delay "
        "%.2f -> %.2f rtd\n",
        paced_head.n, static_cast<long long>(paced_head.round_us / 1000),
        paced_head.msgs_per_sec(), pipelined_head.msgs_per_sec(), speedup,
        speedup >= 2.0 ? "OK" : "FAIL", paced_head.delay_p50_rtd,
        pipelined_head.delay_p50_rtd);
  }

  if (!options.json_path.empty()) write_json(options, results);
  return all_ok ? 0 : 1;
}
