// urcgc_sim — command-line experiment runner.
//
// Runs a single urcgc (or baseline) experiment from flags and prints the
// report; the scripting-friendly face of the harness.
//
//   urcgc_sim --n=10 --k=3 --load=0.5 --messages=300
//             --omission=0.002 --crash=7@400 --crash=2@600 --seed=1
//   urcgc_sim --protocol=cbcast --n=8 --messages=200 --storm=2
//   urcgc_sim --n=40 --messages=480 --threshold=320 --csv
//
// Exit status: 0 iff the run reached quiescence with all URCGC clauses
// intact.

#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/runner.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "obs/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace urcgc;

struct Options {
  std::string protocol = "urcgc";  // urcgc | cbcast | psync
  std::string backend = "sim";     // sim | threads
  std::int64_t tick_ns = 50'000;   // threads backend: real ns per tick
  int n = 10;
  int k = 3;
  int pipeline_k = 1;
  std::string control_encoding = "full";
  double load = 0.5;
  std::int64_t messages = 200;
  double cross_dep = 0.3;
  double omission = 0.0;
  double packet_loss = 0.0;
  std::vector<double> joins;  // join request rtds, one joiner each
  std::vector<std::pair<ProcessId, Tick>> crashes;
  int coordinator_crashes = 0;
  int storm = -1;  // cbcast flush-coordinator storm
  std::size_t threshold = 0;
  std::string causality = "intermediate";
  bool use_transport = false;
  bool csv = false;
  bool verbose = false;
  std::string trace_path;
  std::string metrics_out_path;
  std::string metrics_csv_path;
  bool metrics_summary = false;
  std::uint64_t seed = 1;
  double limit_rtd = 6000;

  [[nodiscard]] bool wants_metrics() const {
    return !metrics_out_path.empty() || !metrics_csv_path.empty() ||
           metrics_summary;
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --protocol=urcgc|cbcast|psync   protocol to run (default urcgc)\n"
      "  --backend=sim|threads|socket    runtime backend (default sim;\n"
      "                                  threads = one OS thread/process,\n"
      "                                  socket = threads + one UDP socket\n"
      "                                  per process over localhost;\n"
      "                                  non-deterministic; all protocols)\n"
      "  --tick-ns=NS                    threads: real ns per tick (50000;\n"
      "                                  0 = free-running)\n"
      "  --n=N                           group size (default 10)\n"
      "  --k=K                           failure-detection attempts (3)\n"
      "  --pipeline-k=K                  subruns in flight (1 = paced;\n"
      "                                  >1 pipelines DECISIONs and raises\n"
      "                                  the workload burst to match)\n"
      "  --control-encoding=full|delta   control-plane wire encoding\n"
      "                                  (full = self-contained frames,\n"
      "                                  delta = anchored sparse frames)\n"
      "  --load=L                        msgs/process/round in [0,1] (0.5)\n"
      "  --messages=M                    total offered messages (200)\n"
      "  --cross-dep=P                   cross-process dep probability (0.3)\n"
      "  --omission=P                    send+recv omission probability\n"
      "  --packet-loss=P                 subnet loss probability\n"
      "  --crash=PID@TICK                fail-stop schedule (repeatable)\n"
      "  --joins=RTD[,RTD...]            urcgc: start one joiner per entry\n"
      "                                  at that rtd; ids continue after\n"
      "                                  the founders (--n=4 --joins=6 ->\n"
      "                                  p4 requests admission at 6 rtd)\n"
      "  --coordinator-crashes=F         urcgc Fig.5 storm\n"
      "  --storm=F                       cbcast flush-coordinator storm\n"
      "  --threshold=H                   history flow-control threshold\n"
      "  --causality=general|intermediate|temporal\n"
      "  --transport                     mount on h-reply transport\n"
      "  --trace=FILE                    write a JSONL protocol trace\n"
      "  --metrics-out=FILE              write obs registry as JSONL\n"
      "  --metrics-csv=FILE              write obs registry as CSV\n"
      "  --metrics-summary               print a metrics summary table\n"
      "  --seed=S --limit-rtd=T --csv --verbose\n",
      argv0);
  std::exit(2);
}

bool consume(std::string_view arg, std::string_view key,
             std::string_view& value) {
  if (arg.substr(0, key.size()) != key) return false;
  if (arg.size() == key.size()) {
    value = "";
    return true;
  }
  if (arg[key.size()] != '=') return false;
  value = arg.substr(key.size() + 1);
  return true;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (consume(arg, "--protocol", value)) {
      opt.protocol = value;
    } else if (consume(arg, "--backend", value)) {
      opt.backend = value;
    } else if (consume(arg, "--tick-ns", value)) {
      opt.tick_ns = std::atoll(value.data());
    } else if (consume(arg, "--n", value)) {
      opt.n = std::atoi(value.data());
    } else if (consume(arg, "--k", value)) {
      opt.k = std::atoi(value.data());
    } else if (consume(arg, "--pipeline-k", value)) {
      opt.pipeline_k = std::atoi(value.data());
    } else if (consume(arg, "--control-encoding", value)) {
      opt.control_encoding = value;
    } else if (consume(arg, "--load", value)) {
      opt.load = std::atof(value.data());
    } else if (consume(arg, "--messages", value)) {
      opt.messages = std::atoll(value.data());
    } else if (consume(arg, "--cross-dep", value)) {
      opt.cross_dep = std::atof(value.data());
    } else if (consume(arg, "--omission", value)) {
      opt.omission = std::atof(value.data());
    } else if (consume(arg, "--packet-loss", value)) {
      opt.packet_loss = std::atof(value.data());
    } else if (consume(arg, "--crash", value)) {
      const std::string s(value);
      const auto at = s.find('@');
      if (at == std::string::npos) usage(argv[0]);
      opt.crashes.push_back({std::atoi(s.substr(0, at).c_str()),
                             std::atoll(s.substr(at + 1).c_str())});
    } else if (consume(arg, "--joins", value)) {
      std::string s(value);
      std::size_t pos = 0;
      while (pos <= s.size()) {
        const auto comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
        if (item.empty()) usage(argv[0]);
        const double rtd = std::atof(item.c_str());
        if (rtd < 0) usage(argv[0]);
        opt.joins.push_back(rtd);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (consume(arg, "--coordinator-crashes", value)) {
      opt.coordinator_crashes = std::atoi(value.data());
    } else if (consume(arg, "--storm", value)) {
      opt.storm = std::atoi(value.data());
    } else if (consume(arg, "--threshold", value)) {
      opt.threshold = static_cast<std::size_t>(std::atoll(value.data()));
    } else if (consume(arg, "--causality", value)) {
      opt.causality = value;
    } else if (consume(arg, "--transport", value)) {
      opt.use_transport = true;
    } else if (consume(arg, "--seed", value)) {
      opt.seed = std::strtoull(value.data(), nullptr, 10);
    } else if (consume(arg, "--limit-rtd", value)) {
      opt.limit_rtd = std::atof(value.data());
    } else if (consume(arg, "--trace", value)) {
      opt.trace_path = value;
    } else if (consume(arg, "--metrics-out", value)) {
      opt.metrics_out_path = value;
    } else if (consume(arg, "--metrics-csv", value)) {
      opt.metrics_csv_path = value;
    } else if (consume(arg, "--metrics-summary", value)) {
      opt.metrics_summary = true;
    } else if (consume(arg, "--csv", value)) {
      opt.csv = true;
    } else if (consume(arg, "--verbose", value)) {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %.*s\n",
                   static_cast<int>(arg.size()), arg.data());
      usage(argv[0]);
    }
  }
  return opt;
}

/// Writes the registry to the requested sinks. Returns false (with a
/// message on stderr) if a file could not be opened.
bool export_metrics(const obs::Registry& registry, const Options& opt) {
  if (!opt.metrics_out_path.empty()) {
    std::ofstream out(opt.metrics_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open metrics file %s\n",
                   opt.metrics_out_path.c_str());
      return false;
    }
    registry.write_jsonl(out);
    std::fprintf(stderr, "wrote metrics JSONL to %s\n",
                 opt.metrics_out_path.c_str());
  }
  if (!opt.metrics_csv_path.empty()) {
    std::ofstream out(opt.metrics_csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open metrics file %s\n",
                   opt.metrics_csv_path.c_str());
      return false;
    }
    registry.write_csv(out);
    std::fprintf(stderr, "wrote metrics CSV to %s\n",
                 opt.metrics_csv_path.c_str());
  }
  if (opt.metrics_summary) registry.write_summary(std::cout);
  return true;
}

int run_urcgc(const Options& opt) {
  harness::ExperimentConfig config;
  config.protocol.n = opt.n;
  config.protocol.k_attempts = opt.k;
  config.protocol.history_threshold = opt.threshold;
  if (opt.pipeline_k < 1) {
    std::fprintf(stderr, "--pipeline-k must be >= 1\n");
    return 2;
  }
  config.protocol.max_subruns_in_flight = opt.pipeline_k;
  config.workload.burst = opt.pipeline_k;
  if (opt.control_encoding == "full") {
    config.protocol.control_encoding = core::ControlEncoding::kFull;
  } else if (opt.control_encoding == "delta") {
    config.protocol.control_encoding = core::ControlEncoding::kDelta;
  } else {
    std::fprintf(stderr, "unknown control encoding: %s\n",
                 opt.control_encoding.c_str());
    return 2;
  }
  if (opt.causality == "general") {
    config.protocol.causality = core::CausalityMode::kGeneral;
  } else if (opt.causality == "temporal") {
    config.protocol.causality = core::CausalityMode::kTemporal;
  } else if (opt.causality == "intermediate") {
    config.protocol.causality = core::CausalityMode::kIntermediate;
  } else {
    std::fprintf(stderr, "unknown causality mode: %s\n",
                 opt.causality.c_str());
    return 2;
  }
  config.workload.load = opt.load;
  config.workload.total_messages = opt.messages;
  config.workload.cross_dep_prob = opt.cross_dep;
  config.faults.omission_prob = opt.omission;
  config.faults.packet_loss = opt.packet_loss;
  config.faults.crashes = opt.crashes;
  config.faults.coordinator_crashes = opt.coordinator_crashes;
  config.join_rtds = opt.joins;
  config.use_transport = opt.use_transport;
  config.transport.h_all_on_broadcast = true;
  config.seed = opt.seed;
  config.limit_rtd = opt.limit_rtd;
  if (opt.backend == "threads" || opt.backend == "socket") {
    if (opt.tick_ns < 0) {
      std::fprintf(stderr, "--tick-ns must be >= 0 (0 = free-running)\n");
      return 2;
    }
    config.backend = opt.backend == "socket" ? harness::Backend::kSocket
                                             : harness::Backend::kThreads;
    config.thread_tick_ns = opt.tick_ns;
  } else if (opt.backend != "sim") {
    std::fprintf(stderr, "unknown backend: %s\n", opt.backend.c_str());
    return 2;
  }

  // Optional JSONL trace (everything except per-datagram send events,
  // which would dominate the file). With --metrics-* but no --trace the
  // recorder still observes — it feeds the trace.events.* counters — but
  // its in-memory log keeps only the rare kinds so long runs stay cheap.
  obs::Registry registry(opt.n + static_cast<int>(opt.joins.size()));
  if (opt.wants_metrics()) config.metrics = &registry;

  std::vector<trace::EventKind> keep{
      trace::EventKind::kHalt, trace::EventKind::kDiscarded,
      trace::EventKind::kRequestDropped, trace::EventKind::kJoined};
  if (!opt.trace_path.empty()) {
    keep.insert(keep.end(),
                {trace::EventKind::kGenerated, trace::EventKind::kProcessed,
                 trace::EventKind::kDecision, trace::EventKind::kCleaned,
                 trace::EventKind::kRecovery,
                 trace::EventKind::kFlowBlocked});
  }
  trace::TraceRecorder tracer(std::move(keep),
                              opt.wants_metrics() ? &registry : nullptr);
  if (!opt.trace_path.empty() || opt.wants_metrics()) {
    config.extra_observer = &tracer;
  }

  const auto report = harness::Experiment(config).run();

  if (opt.wants_metrics() && !export_metrics(registry, opt)) return 2;

  if (!opt.trace_path.empty()) {
    std::ofstream trace_file(opt.trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open trace file %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
    tracer.write_jsonl(trace_file);
    std::fprintf(stderr, "wrote %zu trace events to %s\n", tracer.size(),
                 opt.trace_path.c_str());
  }

  if (opt.csv) {
    std::printf(
        "protocol,n,k,load,messages,omission,packet_loss,seed,end_rtd,"
        "mean_delay_rtd,p99_delay_rtd,processed_events,control_msgs,"
        "control_bytes,discarded,quiescent,atomicity,ordering\n");
    std::printf(
        "urcgc,%d,%d,%g,%lld,%g,%g,%llu,%.2f,%.4f,%.4f,%llu,%llu,%llu,%llu,"
        "%d,%d,%d\n",
        opt.n, opt.k, opt.load, static_cast<long long>(opt.messages),
        opt.omission, opt.packet_loss,
        static_cast<unsigned long long>(opt.seed), report.end_rtd,
        report.delay_rtd.mean, report.delay_rtd.p99,
        static_cast<unsigned long long>(report.processed_events),
        static_cast<unsigned long long>(report.traffic.control_count()),
        static_cast<unsigned long long>(report.traffic.control_bytes()),
        static_cast<unsigned long long>(report.discarded),
        report.quiescent ? 1 : 0, report.atomicity_ok ? 1 : 0,
        report.ordering_ok ? 1 : 0);
  } else {
    std::printf("urcgc run: n=%d K=%d load=%g messages=%lld seed=%llu\n",
                opt.n, opt.k, opt.load,
                static_cast<long long>(opt.messages),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  finished             : %.1f rtd (quiescent: %s)\n",
                report.end_rtd, report.quiescent ? "yes" : "NO");
    std::printf("  mean / p99 delay     : %.3f / %.3f rtd\n",
                report.delay_rtd.mean, report.delay_rtd.p99);
    std::printf("  generated / processed: %llu / %llu events\n",
                static_cast<unsigned long long>(report.generated),
                static_cast<unsigned long long>(report.processed_events));
    std::printf("  control traffic      : %llu msgs, %llu bytes\n",
                static_cast<unsigned long long>(report.traffic.control_count()),
                static_cast<unsigned long long>(report.traffic.control_bytes()));
    std::printf("  peak history / wait  : %.0f / %.0f\n",
                report.history_max.max_value(),
                report.waiting_max.max_value());
    std::printf("  discarded (orphans)  : %llu\n",
                static_cast<unsigned long long>(report.discarded));
    std::printf("  wire buffers         : %llu allocs, %llu B allocated, "
                "%llu B copied\n",
                static_cast<unsigned long long>(report.buffers.allocations),
                static_cast<unsigned long long>(
                    report.buffers.bytes_allocated),
                static_cast<unsigned long long>(report.buffers.bytes_copied));
    for (const auto& join : report.joins) {
      std::printf("  join: p%d admitted at tick %lld (baseline %zu seqs)\n",
                  join.p, static_cast<long long>(join.at),
                  join.baseline.size());
    }
    for (const auto& halt : report.halts) {
      std::printf("  halt: p%d (%s) at tick %lld\n", halt.p,
                  to_string(halt.reason), static_cast<long long>(halt.at));
    }
    std::printf("  atomicity / ordering : %s / %s\n",
                report.atomicity_ok ? "OK" : "VIOLATED",
                report.ordering_ok ? "OK" : "VIOLATED");
    if (opt.verbose) {
      std::printf("  decisions: %zu (last subrun %lld)\n",
                  report.decisions.size(),
                  report.decisions.empty()
                      ? -1LL
                      : static_cast<long long>(
                            report.decisions.back().subrun));
      for (const auto& violation : report.violations) {
        std::printf("  !! %s\n", violation.c_str());
      }
    }
  }
  return report.quiescent && report.all_ok() ? 0 : 1;
}

int run_baseline(const Options& opt) {
  baselines::BaselineConfig config;
  config.n = opt.n;
  config.k_attempts = opt.k;
  config.workload.load = opt.load;
  config.workload.total_messages = opt.messages;
  config.faults.crashes = opt.crashes;
  config.faults.packet_loss = opt.packet_loss;
  config.faults.flush_coordinator_crashes = opt.storm;
  if (opt.backend == "threads" || opt.backend == "socket") {
    if (opt.tick_ns < 0) {
      std::fprintf(stderr, "--tick-ns must be >= 0 (0 = free-running)\n");
      return 2;
    }
    config.backend = opt.backend == "socket" ? baselines::Backend::kSocket
                                             : baselines::Backend::kThreads;
    config.thread_tick_ns = opt.tick_ns;
  } else if (opt.backend != "sim") {
    std::fprintf(stderr, "unknown backend: %s\n", opt.backend.c_str());
    return 2;
  }
  config.seed = opt.seed;
  config.limit_rtd = opt.limit_rtd;

  obs::Registry registry(opt.n);
  if (opt.wants_metrics()) config.metrics = &registry;

  const auto report = opt.protocol == "cbcast"
                          ? baselines::run_cbcast(config)
                          : baselines::run_psync(config);

  if (opt.wants_metrics() && !export_metrics(registry, opt)) return 2;
  std::printf("%s run: n=%d K=%d messages=%lld seed=%llu\n",
              opt.protocol.c_str(), opt.n, opt.k,
              static_cast<long long>(opt.messages),
              static_cast<unsigned long long>(opt.seed));
  std::printf("  finished            : %.1f rtd\n", report.end_rtd);
  std::printf("  mean delay          : %.3f rtd\n", report.delay_rtd.mean);
  std::printf("  delivered events    : %llu\n",
              static_cast<unsigned long long>(report.delivered_events));
  std::printf("  survivors           : %d\n", report.survivors);
  std::printf("  blocked time        : %.1f rtd\n", report.blocked_rtd);
  if (report.view_change_rtd >= 0) {
    std::printf("  view change         : %.1f rtd\n", report.view_change_rtd);
  }
  std::printf("  wire buffers        : %llu allocs, %llu B allocated, "
              "%llu B copied\n",
              static_cast<unsigned long long>(report.buffers.allocations),
              static_cast<unsigned long long>(report.buffers.bytes_allocated),
              static_cast<unsigned long long>(report.buffers.bytes_copied));
  std::printf("  causal order        : %s\n",
              report.causal_order_ok ? "OK" : "VIOLATED");
  return report.causal_order_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.protocol == "urcgc") return run_urcgc(opt);
  if (opt.protocol == "cbcast" || opt.protocol == "psync") {
    return run_baseline(opt);
  }
  std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
  return 2;
}
