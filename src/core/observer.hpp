#pragma once
// Instrumentation hooks. The harness implements this interface to feed the
// stats module; the protocol calls it at every externally-meaningful event.
// All callbacks default to no-ops so tests can override selectively.

#include <cstddef>

#include "common/types.hpp"
#include "core/message.hpp"
#include "core/pdu.hpp"
#include "stats/metrics.hpp"

namespace urcgc::core {

enum class HaltReason {
  kNone,
  kCrashFault,       // fail-stop injected by the fault plan
  kSuicide,          // learned the group declared it crashed
  kRecoveryExhausted,  // R unsuccessful recovery attempts
  kNoCoordinator,    // K consecutive subruns without a decision
  kJoinExhausted,    // joiner ran out of admission/catch-up attempts
};

[[nodiscard]] constexpr const char* to_string(HaltReason reason) {
  switch (reason) {
    case HaltReason::kNone: return "none";
    case HaltReason::kCrashFault: return "crash-fault";
    case HaltReason::kSuicide: return "suicide";
    case HaltReason::kRecoveryExhausted: return "recovery-exhausted";
    case HaltReason::kNoCoordinator: return "no-coordinator";
    case HaltReason::kJoinExhausted: return "join-exhausted";
  }
  return "?";
}

class Observer {
 public:
  virtual ~Observer() = default;

  virtual void on_generated(ProcessId /*p*/, const AppMessage& /*msg*/,
                            Tick /*at*/) {}
  /// `msg` is the history's stored copy: the reference is valid only
  /// during the callback. An observer that keeps the message copies it.
  virtual void on_processed(ProcessId /*p*/, const AppMessage& /*msg*/,
                            Tick /*at*/) {}
  /// Every PDU handed to the subnet, with its wire size.
  virtual void on_sent(ProcessId /*p*/, stats::MsgClass /*cls*/,
                       std::size_t /*bytes*/, Tick /*at*/) {}
  virtual void on_decision_made(ProcessId /*coordinator*/,
                                const Decision& /*d*/, Tick /*at*/) {}
  virtual void on_history_cleaned(ProcessId /*p*/, std::size_t /*purged*/,
                                  Tick /*at*/) {}
  virtual void on_halt(ProcessId /*p*/, HaltReason /*reason*/, Tick /*at*/) {}
  virtual void on_discarded(ProcessId /*p*/, const Mid& /*mid*/,
                            Tick /*at*/) {}
  virtual void on_recovery_attempt(ProcessId /*p*/, ProcessId /*target*/,
                                   ProcessId /*origin*/, Tick /*at*/) {}
  virtual void on_flow_blocked(ProcessId /*p*/, Tick /*at*/) {}
  /// A REQUEST from `from` for `rq_subrun` reached `p` outside the open
  /// inbox window and was discarded (quorum shrinkage).
  virtual void on_request_dropped(ProcessId /*p*/, ProcessId /*from*/,
                                  SubrunId /*rq_subrun*/, Tick /*at*/) {}
  /// Joiner `p` finished catch-up: its snapshot baseline (per-origin
  /// processed prefixes adopted from the serving member) is final and the
  /// joiner participates as a full member from here on.
  virtual void on_joined(ProcessId /*p*/, const std::vector<Seq>& /*baseline*/,
                         Tick /*at*/) {}
};

}  // namespace urcgc::core
