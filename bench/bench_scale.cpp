// Control-plane scale bench with machine-readable output.
//
// Sweeps group size x control-plane encoding on the deterministic sim,
// measuring what the delta encoding buys as n grows: REQUEST/DECISION
// bytes on the wire, control bytes per delivered message, and how often
// the delta path fell back to full snapshots (anchor rules, periodic
// refresh) or dropped a frame on an anchor miss. The group is a diffusion
// group with a small fixed server set, the shape the paper's scaling
// argument assumes: a few active senders in front of an arbitrarily large
// passive membership, so the O(n) vectors in full frames dwarf the
// O(active) sparse overrides in delta frames.
//
// Output: a human-readable table on stdout and, with --json=FILE, the
// BENCH_scale.json document whose schema PERFORMANCE.md documents field
// by field (validated in CI by tools/check_bench_schema.py).
//
// Usage:
//   bench_scale [--json=FILE] [--quick] [--messages=N] [--seed=S]
//
// Exit status: 0 iff every point validated (correctness clauses and
// quiescence) and the delta encoding cut control bytes per delivery by
// at least 5x at every measured n >= 1000.

#include <algorithm>
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
constexpr int kServerCount = 8;
constexpr double kRequiredRatio = 5.0;  // delta must win 5x at n >= 1000
constexpr int kRatioGateN = 1000;

struct Options {
  std::string json_path;
  bool quick = false;
  std::int64_t messages = 96;
  std::uint64_t seed = 1;
};

struct RunResult {
  std::string encoding;
  int n = 0;
  int senders = 0;
  int snapshot_every = 0;
  std::uint64_t seed = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;  // deliveries summed over the whole group
  std::uint64_t request_bytes = 0;
  std::uint64_t decision_bytes = 0;
  std::uint64_t delta_fallbacks = 0;
  std::uint64_t delta_anchor_miss = 0;
  double wall_seconds = 0.0;
  bool ok = true;

  [[nodiscard]] std::uint64_t control_bytes() const {
    return request_bytes + decision_bytes;
  }
  [[nodiscard]] double bytes_per_delivery() const {
    if (delivered == 0) return 0.0;
    return static_cast<double>(control_bytes()) /
           static_cast<double>(delivered);
  }
};

RunResult run_point(const Options& options, int n,
                    core::ControlEncoding encoding) {
  const auto start = std::chrono::steady_clock::now();
  harness::ExperimentConfig config;
  config.protocol.n = n;
  config.protocol.structure = core::GroupStructure::kDiffusion;
  config.protocol.server_count = std::min(kServerCount, n);
  config.protocol.control_encoding = encoding;
  config.workload.load = 0.8;
  config.workload.total_messages = options.messages;
  config.workload.cross_dep_prob = 0.2;
  config.seed = options.seed;
  config.limit_rtd = 600;

  obs::Registry registry(n);
  config.metrics = &registry;
  const auto report = harness::Experiment(config).run();

  RunResult result;
  result.encoding = std::string(core::to_string(encoding));
  result.n = n;
  result.senders = config.protocol.server_count;
  result.snapshot_every = config.protocol.delta_snapshot_every;
  result.seed = options.seed;
  result.generated = report.generated;
  result.delivered = report.processed_events;
  result.request_bytes = report.traffic.bytes(stats::MsgClass::kRequest);
  result.decision_bytes = report.traffic.bytes(stats::MsgClass::kDecision);
  result.delta_fallbacks =
      registry.counter_total(registry.find("core.delta_fallbacks"));
  result.delta_anchor_miss =
      registry.counter_total(registry.find("core.delta_anchor_miss"));
  result.ok = report.all_ok() && report.quiescent &&
              report.workload_exhausted && result.delivered > 0;
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
  std::fprintf(f, "  \"bench\": \"bench_scale\",\n");
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
    std::fprintf(f, "      \"backend\": \"sim\",\n");
    std::fprintf(f, "      \"encoding\": \"%s\",\n", r.encoding.c_str());
    std::fprintf(f, "      \"n\": %d,\n", r.n);
    std::fprintf(f, "      \"senders\": %d,\n", r.senders);
    std::fprintf(f, "      \"snapshot_every\": %d,\n", r.snapshot_every);
    std::fprintf(f, "      \"seed\": %llu,\n",
                 static_cast<unsigned long long>(r.seed));
    std::fprintf(f, "      \"messages_generated\": %llu,\n",
                 static_cast<unsigned long long>(r.generated));
    std::fprintf(f, "      \"messages_delivered\": %llu,\n",
                 static_cast<unsigned long long>(r.delivered));
    std::fprintf(f, "      \"request_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.request_bytes));
    std::fprintf(f, "      \"decision_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.decision_bytes));
    std::fprintf(f, "      \"control_bytes_per_delivery\": %.3f,\n",
                 r.bytes_per_delivery());
    std::fprintf(f, "      \"delta_fallbacks\": %llu,\n",
                 static_cast<unsigned long long>(r.delta_fallbacks));
    std::fprintf(f, "      \"delta_anchor_miss\": %llu,\n",
                 static_cast<unsigned long long>(r.delta_anchor_miss));
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
  std::vector<int> group_sizes{50, 200, 1000, 4000};
  if (options.quick) group_sizes = {200};
  const std::vector<core::ControlEncoding> encodings{
      core::ControlEncoding::kFull, core::ControlEncoding::kDelta};

  std::printf(
      "Control-plane scale sweep — %lld messages per point, seed %llu, "
      "diffusion group with %d servers\n\n",
      static_cast<long long>(options.messages),
      static_cast<unsigned long long>(options.seed), kServerCount);

  harness::Table table({"n", "encoding", "rq bytes", "dec bytes",
                        "B/delivery", "fallbacks", "anchor miss", "wall s"});
  std::vector<RunResult> results;
  bool all_ok = true;
  for (int n : group_sizes) {
    for (core::ControlEncoding encoding : encodings) {
      RunResult r = run_point(options, n, encoding);
      if (!r.ok) {
        std::fprintf(stderr, "VALIDATION FAILED: n=%d encoding=%s\n", n,
                     r.encoding.c_str());
        all_ok = false;
      }
      table.row({harness::Table::num(n, 0), r.encoding,
                 harness::Table::num(static_cast<double>(r.request_bytes), 0),
                 harness::Table::num(static_cast<double>(r.decision_bytes), 0),
                 harness::Table::num(r.bytes_per_delivery(), 2),
                 harness::Table::num(static_cast<double>(r.delta_fallbacks), 0),
                 harness::Table::num(
                     static_cast<double>(r.delta_anchor_miss), 0),
                 harness::Table::num(r.wall_seconds, 2)});
      results.push_back(std::move(r));
    }
  }
  table.print();

  // Headline the acceptance criterion tracks: at every measured n the
  // delta encoding must spend fewer control bytes per delivered message
  // than full frames, and from n = 1000 up the reduction must be >= 5x.
  std::printf("\nheadline: full -> delta control bytes per delivery\n");
  for (int n : group_sizes) {
    const RunResult* full = nullptr;
    const RunResult* delta = nullptr;
    for (const RunResult& r : results) {
      if (r.n != n) continue;
      (r.encoding == "full" ? full : delta) = &r;
    }
    if (full == nullptr || delta == nullptr) continue;
    const double before = full->bytes_per_delivery();
    const double after = delta->bytes_per_delivery();
    const double ratio = after > 0.0 ? before / after : 0.0;
    const bool gated = n >= kRatioGateN;
    const bool pass = after < before && (!gated || ratio >= kRequiredRatio);
    std::printf("  n=%-5d %.1f -> %.1f B/delivery (%.1fx%s): %s\n", n,
                before, after, ratio,
                gated ? ", requirement >= 5x" : "", pass ? "OK" : "FAIL");
    if (!pass) all_ok = false;
  }

  if (!options.json_path.empty()) write_json(options, results);
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
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* messages = value("--messages=")) {
      options.messages = std::atoll(messages);
    } else if (const char* seed = value("--seed=")) {
      options.seed = std::strtoull(seed, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown argument %s\n"
                   "usage: bench_scale [--json=FILE] [--quick] "
                   "[--messages=N] [--seed=S]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  return run_sweep(parse(argc, argv));
}
