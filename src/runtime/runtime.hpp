#pragma once
// Runtime: the interface between the protocol stack and its host.
//
// The urcgc protocol (and both baselines) need exactly four things from
// the environment they execute in: the current time in ticks, deferred
// execution of a closure, a round heartbeat, and the round/subrun clock
// arithmetic. This interface captures those four, so the same protocol
// code runs unchanged on the deterministic discrete-event simulator
// (sim::Simulation) and on the real-time threaded backend
// (rt::ThreadedRuntime) — and, later, on a socket-based deployment.
//
// Execution contexts: every closure and round handler is owned by a
// ProcessId. Backends with real concurrency (ThreadedRuntime) guarantee
// that everything owned by one process runs on that process's thread, so
// protocol state needs no internal locking; kNoProcess denotes the host /
// driver context (workload generation, metric sampling). The simulator
// runs everything on one thread and ignores ownership.

#include <functional>
#include <utility>

#include "common/types.hpp"
#include "runtime/clock.hpp"
#include "runtime/event_fn.hpp"

namespace urcgc::rt {

class DatagramSubnet;  // runtime/subnet.hpp

/// Handler invoked at the beginning of every round.
using RoundHandler = std::function<void(RoundId)>;

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time in ticks. The simulator returns exact virtual time; the
  /// threaded backend returns the start tick of the round in progress.
  [[nodiscard]] virtual Tick now() const = 0;

  /// Round/subrun arithmetic shared by every consumer.
  [[nodiscard]] virtual const RoundClock& clock() const = 0;

  /// Schedules fn `delay` ticks from now on the execution context of
  /// process `owner` (kNoProcess = the host/driver context). All state fn
  /// touches must belong to `owner`. Only the runtime's own execution
  /// contexts (a task or round handler of any owner) and the driver thread
  /// (the caller of run_until*, or the thread assembling the group before
  /// the first run) may post, and the driver only between rounds — from a
  /// host task or handler, or outside run_until*. Backends with real
  /// concurrency have no lock on their mailboxes and abort on a post from
  /// any other thread while the workers run.
  virtual void post(ProcessId owner, Tick delay, EventFn fn) = 0;

  /// Convenience: schedule on the host/driver context.
  void after(Tick delay, EventFn fn) {
    post(kNoProcess, delay, std::move(fn));
  }

  /// Registers a handler called at the start of every round on `owner`'s
  /// execution context. Handlers of the same owner run in registration
  /// order. Register before the runtime runs, or mid-run from `owner`'s
  /// own execution context (e.g. a posted closure attaching a late joiner
  /// to the heartbeat). Mid-run registration from any *other* thread is
  /// undefined on backends with real concurrency.
  virtual void on_round(ProcessId owner, RoundHandler handler) = 0;

  /// Convenience: register on the host/driver context.
  void on_round(RoundHandler handler) {
    on_round(kNoProcess, std::move(handler));
  }

  /// Runs until `limit` ticks elapse (or, for the simulator, the event
  /// queue drains). Returns the tick at which the run stopped. May be
  /// called repeatedly to resume.
  virtual Tick run_until(Tick limit) = 0;

  /// Runs until `predicate` returns true (checked at round boundaries,
  /// with every execution context quiesced so the predicate may freely
  /// read protocol state) or `limit` is hit. Returns the stop tick.
  virtual Tick run_until_quiescent(Tick limit,
                                   const std::function<bool()>& predicate) = 0;

  /// The real datagram transport connecting this runtime's execution
  /// contexts, if it has one (see runtime/subnet.hpp). In-memory backends
  /// return nullptr and net::Network delivers by posting closures; a
  /// backend with real sockets returns its subnet and Network hands it the
  /// serialized frames instead.
  [[nodiscard]] virtual DatagramSubnet* datagram_subnet() { return nullptr; }
};

}  // namespace urcgc::rt
