// Fault-injection observability demo: runs a group under aggressive
// general-omission faults and prints the protocol's internal events as
// they happen — decisions, crash declarations, history recovery, suicide,
// cleaning — through the Observer interface. Useful both as an API tour
// and as a narrated trace of Section 4's failure machinery.
//
// Run: ./build/examples/fault_injection_demo

#include <cstdio>
#include <memory>
#include <vector>

#include "core/process.hpp"
#include "net/endpoint.hpp"
#include "sim/simulation.hpp"

using namespace urcgc;

namespace {

class Narrator : public core::Observer {
 public:
  explicit Narrator(const sim::RoundClock& clock) : clock_(clock) {}

  void on_decision_made(ProcessId coordinator, const core::Decision& d,
                        Tick at) override {
    if (d.alive_count() != last_alive_ || d.full_group != last_full_) {
      std::printf("%6.1f rtd  p%d decides: %d alive%s\n", clock_.to_rtd(at),
                  coordinator, d.alive_count(),
                  d.full_group ? ", stability point published" : "");
      last_alive_ = d.alive_count();
      last_full_ = d.full_group;
    }
  }

  void on_recovery_attempt(ProcessId p, ProcessId target, ProcessId origin,
                           Tick at) override {
    ++recoveries_;
    if (recoveries_ <= 8) {  // don't flood the narration
      std::printf("%6.1f rtd  p%d asks p%d for missed messages of p%d\n",
                  clock_.to_rtd(at), p, target, origin);
    }
  }

  void on_history_cleaned(ProcessId p, std::size_t purged,
                          Tick at) override {
    cleaned_ += purged;
    if (p == 0) {
      std::printf("%6.1f rtd  p0 purges %zu stable messages from history\n",
                  clock_.to_rtd(at), purged);
    }
  }

  void on_halt(ProcessId p, core::HaltReason reason, Tick at) override {
    std::printf("%6.1f rtd  p%d halts (%s)\n", clock_.to_rtd(at), p,
                to_string(reason));
  }

  void on_discarded(ProcessId p, const Mid& mid, Tick at) override {
    std::printf("%6.1f rtd  p%d destroys orphaned %s\n", clock_.to_rtd(at),
                p, to_string(mid).c_str());
  }

  void on_flow_blocked(ProcessId p, Tick at) override {
    if (++flow_blocks_ == 1) {
      std::printf("%6.1f rtd  p%d paused by flow control (history full)\n",
                  clock_.to_rtd(at), p);
    }
  }

  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t cleaned() const { return cleaned_; }

 private:
  const sim::RoundClock& clock_;
  int last_alive_ = -1;
  bool last_full_ = false;
  std::uint64_t recoveries_ = 0;
  std::uint64_t cleaned_ = 0;
  std::uint64_t flow_blocks_ = 0;
};

}  // namespace

int main() {
  constexpr int kN = 6;
  core::Config config;
  config.n = kN;
  config.k_attempts = 3;

  // Aggressive fault mix: p5 crashes early; p4 goes send-dead (it will be
  // declared crashed and commit suicide when it learns); everyone suffers
  // 1-in-60 omissions.
  fault::FaultPlan plan(kN);
  plan.crash(5, 140);
  plan.send_omissions(4, 1.0);
  plan.uniform_omissions(1.0 / 60.0);
  plan.per_process[4].send_omission_prob = 1.0;  // keep p4 fully send-dead

  sim::Simulation sim;
  fault::FaultInjector faults(std::move(plan), Rng(99));
  net::Network network(sim, faults, {.min_latency = 5, .max_latency = 9},
                       Rng(98));
  Narrator narrator(sim.clock());

  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<core::UrcgcProcess>> members;
  for (ProcessId p = 0; p < kN; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    members.push_back(std::make_unique<core::UrcgcProcess>(
        config, p, sim, *endpoints.back(), faults, &narrator));
    members.back()->start();
  }

  std::printf("fault-injection demo: n=%d, K=%d; p5 crashes, p4 is"
              " send-dead, 1/60 omissions everywhere\n\n",
              kN, config.k_attempts);

  // Offer steady traffic from the healthy members for 30 subruns.
  for (int s = 0; s < 30; ++s) {
    for (ProcessId p = 0; p < 4; ++p) {
      members[p]->data_rq({static_cast<std::uint8_t>(s)});
    }
    sim.run_until(sim.now() + sim.clock().ticks_per_subrun());
  }
  // Drain.
  sim.run_until(sim.now() + 10 * sim.clock().ticks_per_subrun());

  std::printf("\nfinal state:\n");
  for (ProcessId p = 0; p < kN; ++p) {
    std::printf("  p%d: %s, processed %zu messages, history %zu, waiting"
                " %zu\n",
                p,
                members[p]->halted() ? to_string(members[p]->halt_reason())
                                     : "active",
                members[p]->mt().processing_log().size(),
                members[p]->mt().history_size(),
                members[p]->mt().waiting_size());
  }
  std::printf("  history recoveries issued: %llu, stable messages purged:"
              " %llu\n",
              static_cast<unsigned long long>(narrator.recoveries()),
              static_cast<unsigned long long>(narrator.cleaned()));

  // The demo succeeds if the survivors agree on what they processed.
  const auto& reference = members[0]->mt().processing_log();
  std::size_t reference_count = reference.size();
  bool agree = true;
  for (ProcessId p = 1; p < 4; ++p) {
    if (members[p]->halted()) continue;
    if (members[p]->mt().processing_log().size() != reference_count) {
      agree = false;
    }
  }
  std::printf("survivors agree on processed set size: %s\n",
              agree ? "YES" : "NO");
  return agree ? 0 : 1;
}
