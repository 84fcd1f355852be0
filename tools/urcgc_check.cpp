// urcgc_check — schedule-exploration checker.
//
// Explores randomized fault/schedule scenarios, runs each through the
// experiment harness with a trace attached, and checks every URCGC clause
// with the trace oracle (src/check). Failures are replayable from their
// (seed, schedule) pair and shrinkable to a minimal repro case.
//
//   urcgc-check --seeds 1000                      # explore on the sim
//   urcgc-check --seeds 200 --backend=threads
//   urcgc-check --seeds 500 --mutation=skip-request-merge --shrink
//               --repro-out repro.case            # checker self-test
//   urcgc-check --replay repro.case               # re-run one case
//
// Exit status: 0 iff every execution passed every clause.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/case.hpp"
#include "check/explorer.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "obs/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace urcgc;

struct Options {
  int seeds = 100;
  std::uint64_t base_seed = 1;
  std::string backend = "sim";  // sim | threads | both
  std::string family = "any";
  std::string mutation = "none";
  std::string pipeline_k = "1";
  std::string control_encoding = "full";
  bool shrink = false;
  int max_failures = 1;
  int shrink_evals = 200;
  std::string replay_path;
  std::string trace_out_path;
  std::string report_path;
  std::string repro_out_path;
  std::string metrics_out_path;
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --seeds=N              executions per backend (default 100)\n"
      "  --base-seed=S          first seed; execution i uses S+i (1)\n"
      "  --backend=sim|threads|socket|both|all\n"
      "                         runtime backend(s) to explore (sim);\n"
      "                         both = sim+threads, all = +socket\n"
      "  --family=NAME          restrict generation to one scenario\n"
      "                         family: any | fault-free | omission-window\n"
      "                         | crashes | partition | sustained-omission\n"
      "                         | churn (joins x leaves x crashes)\n"
      "  --mutation=NAME        inject a protocol defect (checker\n"
      "                         self-test): none | skip-request-merge |\n"
      "                         ignore-one-dep\n"
      "  --pipeline-k=LIST      comma-separated pipelining depths to sweep\n"
      "                         (Config::max_subruns_in_flight); each case\n"
      "                         draws one uniformly (default 1)\n"
      "  --control-encoding=full|delta|both\n"
      "                         control-plane wire encoding(s) to sweep;\n"
      "                         both = each case draws one uniformly (full)\n"
      "  --shrink               minimize the first failing case\n"
      "  --shrink-evals=N       shrink evaluation budget (200)\n"
      "  --max-failures=N       stop after N failures; 0 = never (1)\n"
      "  --replay=FILE          run one saved case instead of exploring\n"
      "  --trace-out=FILE       with --replay: dump the full JSONL trace\n"
      "  --report=FILE          write a JSON report (schema\n"
      "                         urcgc-check-report-v1)\n"
      "  --repro-out=FILE       write the (shrunk) failing case\n"
      "  --metrics-out=FILE     write explorer obs counters as JSONL\n"
      "  --verbose\n",
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
    if (consume(arg, "--seeds", value)) {
      opt.seeds = std::atoi(value.data());
    } else if (consume(arg, "--base-seed", value)) {
      opt.base_seed = std::strtoull(value.data(), nullptr, 10);
    } else if (consume(arg, "--backend", value)) {
      opt.backend = value;
    } else if (consume(arg, "--family", value)) {
      opt.family = value;
    } else if (consume(arg, "--mutation", value)) {
      opt.mutation = value;
    } else if (consume(arg, "--pipeline-k", value)) {
      opt.pipeline_k = value;
    } else if (consume(arg, "--control-encoding", value)) {
      opt.control_encoding = value;
    } else if (arg == "--shrink") {
      opt.shrink = true;
    } else if (consume(arg, "--shrink-evals", value)) {
      opt.shrink_evals = std::atoi(value.data());
    } else if (consume(arg, "--max-failures", value)) {
      opt.max_failures = std::atoi(value.data());
    } else if (consume(arg, "--replay", value)) {
      opt.replay_path = value;
    } else if (consume(arg, "--trace-out", value)) {
      opt.trace_out_path = value;
    } else if (consume(arg, "--report", value)) {
      opt.report_path = value;
    } else if (consume(arg, "--repro-out", value)) {
      opt.repro_out_path = value;
    } else if (consume(arg, "--metrics-out", value)) {
      opt.metrics_out_path = value;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.seeds < 1 && opt.replay_path.empty()) usage(argv[0]);
  if (opt.backend != "sim" && opt.backend != "threads" &&
      opt.backend != "socket" && opt.backend != "both" &&
      opt.backend != "all") {
    usage(argv[0]);
  }
  return opt;
}

check::Family parse_family(const std::string& name, const char* argv0) {
  if (name == "any") return check::Family::kAny;
  if (name == "fault-free") return check::Family::kFaultFree;
  if (name == "omission-window") return check::Family::kOmissionWindow;
  if (name == "crashes") return check::Family::kCrashes;
  if (name == "partition") return check::Family::kPartition;
  if (name == "sustained-omission") return check::Family::kSustainedOmission;
  if (name == "churn") return check::Family::kChurn;
  usage(argv0);
}

std::vector<int> parse_pipeline_k(const std::string& list,
                                  const char* argv0) {
  std::vector<int> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int k = std::atoi(item.c_str());
    if (k < 1) usage(argv0);
    out.push_back(k);
  }
  if (out.empty()) usage(argv0);
  return out;
}

std::vector<core::ControlEncoding> parse_encodings(const std::string& name,
                                                   const char* argv0) {
  if (name == "full") return {core::ControlEncoding::kFull};
  if (name == "delta") return {core::ControlEncoding::kDelta};
  if (name == "both") {
    return {core::ControlEncoding::kFull, core::ControlEncoding::kDelta};
  }
  usage(argv0);
}

core::ProtocolMutation parse_mutation(const std::string& name,
                                      const char* argv0) {
  if (name == "none") return core::ProtocolMutation::kNone;
  if (name == "skip-request-merge") {
    return core::ProtocolMutation::kSkipRequestMerge;
  }
  if (name == "ignore-one-dep") return core::ProtocolMutation::kIgnoreOneDep;
  usage(argv0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_failure_json(std::ostream& os, const check::CaseOutcome& failure,
                         const std::string& backend_name) {
  const check::Violation* v = failure.oracle.first();
  os << "{\"backend\":\"" << backend_name << "\",\"seed\":"
     << failure.config.seed << ",\"schedule\":" << failure.config.schedule
     << ",\"n\":" << failure.config.n
     << ",\"messages\":" << failure.config.messages
     << ",\"faults\":" << failure.config.fault_count() << ",\"clause\":\""
     << (v != nullptr ? std::string(check::to_string(v->clause)) : "?")
     << "\",\"message\":\"" << json_escape(failure.first_problem())
     << "\",\"case\":\"" << json_escape(failure.config.serialize()) << "\"}";
}

struct BackendResult {
  std::string name;
  check::ExplorerReport report;
};

int run_replay(const Options& opt) {
  std::ifstream in(opt.replay_path);
  if (!in) {
    std::fprintf(stderr, "urcgc-check: cannot open %s\n",
                 opt.replay_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto parsed = check::CaseConfig::parse(buffer.str(), &error);
  if (!parsed) {
    std::fprintf(stderr, "urcgc-check: %s: %s\n", opt.replay_path.c_str(),
                 error.c_str());
    return 2;
  }
  trace::TraceRecorder recorder;  // keep everything: replay is for forensics
  const check::CaseOutcome outcome = check::run_case(*parsed, &recorder);
  if (!opt.trace_out_path.empty()) {
    std::ofstream trace_out(opt.trace_out_path);
    recorder.write_jsonl(trace_out);
    std::printf("trace written to %s (%zu events)\n",
                opt.trace_out_path.c_str(), recorder.size());
  }
  std::printf("replay %s: n=%d messages=%lld seed=%llu schedule=%llu -> %s\n",
              opt.replay_path.c_str(), parsed->n,
              static_cast<long long>(parsed->messages),
              static_cast<unsigned long long>(parsed->seed),
              static_cast<unsigned long long>(parsed->schedule),
              outcome.ok() ? "PASS" : "FAIL");
  if (!outcome.ok()) {
    std::printf("  %s\n", outcome.first_problem().c_str());
  }
  return outcome.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.replay_path.empty()) return run_replay(opt);

  const core::ProtocolMutation mutation =
      parse_mutation(opt.mutation, argv[0]);
  std::vector<std::string> backends;
  if (opt.backend == "both") {
    backends = {"sim", "threads"};
  } else if (opt.backend == "all") {
    backends = {"sim", "threads", "socket"};
  } else {
    backends = {opt.backend};
  }

  obs::Registry metrics(0);
  std::vector<BackendResult> results;
  std::optional<check::ShrinkResult> shrunk;

  for (const std::string& backend_name : backends) {
    check::ExplorerOptions explorer;
    explorer.executions = opt.seeds;
    explorer.base_seed = opt.base_seed;
    explorer.backend = backend_name == "threads" ? harness::Backend::kThreads
                       : backend_name == "socket" ? harness::Backend::kSocket
                                                  : harness::Backend::kSim;
    explorer.family = parse_family(opt.family, argv[0]);
    explorer.mutation = mutation;
    explorer.pipeline_k_choices = parse_pipeline_k(opt.pipeline_k, argv[0]);
    explorer.encoding_choices = parse_encodings(opt.control_encoding, argv[0]);
    explorer.max_failures = opt.max_failures;
    explorer.metrics = &metrics;
    const int step = std::max(1, opt.seeds / 10);
    explorer.on_progress = [&](int done, int total, int failures) {
      if (opt.verbose && (done % step == 0 || done == total)) {
        std::fprintf(stderr, "[%s] %d/%d executions, %d violation(s)\n",
                     backend_name.c_str(), done, total, failures);
      }
    };

    check::ExplorerReport report = check::explore(explorer);
    std::printf("%s: %d execution(s), %d violation(s)\n",
                backend_name.c_str(), report.executions, report.violations);
    for (const check::CaseOutcome& failure : report.failures) {
      std::printf("  seed=%llu schedule=%llu n=%d: %s\n",
                  static_cast<unsigned long long>(failure.config.seed),
                  static_cast<unsigned long long>(failure.config.schedule),
                  failure.config.n, failure.first_problem().c_str());
    }

    if (opt.shrink && !shrunk && !report.failures.empty()) {
      check::ShrinkOptions shrink_options;
      shrink_options.max_evaluations = opt.shrink_evals;
      if (opt.verbose) {
        shrink_options.on_step = [](int evals, const check::CaseConfig& b) {
          if (evals % 25 == 0) {
            std::fprintf(stderr,
                         "[shrink] %d evaluations, best n=%d messages=%lld\n",
                         evals, b.n, static_cast<long long>(b.messages));
          }
        };
      }
      shrunk = check::shrink_case(report.failures.front().config,
                                  shrink_options);
      std::printf(
          "shrunk: n %d -> %d, messages %lld -> %lld, faults %zu -> %zu "
          "(%d evaluations)\n",
          shrunk->initial_n, shrunk->minimal.n,
          static_cast<long long>(shrunk->initial_messages),
          static_cast<long long>(shrunk->minimal.messages),
          shrunk->initial_faults, shrunk->minimal.fault_count(),
          shrunk->evaluations);
      std::printf("  still fails with: %s\n",
                  shrunk->outcome.first_problem().c_str());
    }
    results.push_back({backend_name, std::move(report)});
  }

  int total_violations = 0;
  for (const BackendResult& r : results) {
    total_violations += r.report.violations;
  }

  if (!opt.repro_out_path.empty()) {
    const check::CaseConfig* repro = nullptr;
    if (shrunk) {
      repro = &shrunk->minimal;
    } else {
      for (const BackendResult& r : results) {
        if (!r.report.failures.empty()) {
          repro = &r.report.failures.front().config;
          break;
        }
      }
    }
    if (repro != nullptr) {
      std::ofstream out(opt.repro_out_path);
      out << repro->serialize();
      std::printf("repro written to %s\n", opt.repro_out_path.c_str());
    }
  }

  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    out << "{\"schema\":\"urcgc-check-report-v1\",\"base_seed\":"
        << opt.base_seed << ",\"seeds\":" << opt.seeds << ",\"mutation\":\""
        << core::to_string(mutation) << "\",\"backends\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"backend\":\"" << results[i].name << "\",\"executions\":"
          << results[i].report.executions << ",\"violations\":"
          << results[i].report.violations << "}";
    }
    out << "],\"violations\":" << total_violations << ",\"failures\":[";
    bool first = true;
    for (const BackendResult& r : results) {
      for (const check::CaseOutcome& failure : r.report.failures) {
        if (!first) out << ",";
        first = false;
        append_failure_json(out, failure, r.name);
      }
    }
    out << "]";
    if (shrunk) {
      const check::Violation* v = shrunk->outcome.oracle.first();
      out << ",\"shrunk\":{\"n\":" << shrunk->minimal.n << ",\"messages\":"
          << shrunk->minimal.messages << ",\"faults\":"
          << shrunk->minimal.fault_count() << ",\"evaluations\":"
          << shrunk->evaluations << ",\"clause\":\""
          << (v != nullptr ? std::string(check::to_string(v->clause)) : "?")
          << "\",\"case\":\"" << json_escape(shrunk->minimal.serialize())
          << "\"}";
    }
    out << "}\n";
  }

  if (!opt.metrics_out_path.empty()) {
    std::ofstream out(opt.metrics_out_path);
    metrics.write_jsonl(out);
  }

  return total_violations == 0 ? 0 : 1;
}
