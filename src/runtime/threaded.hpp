#pragma once
// ThreadedRuntime: real-time, really-concurrent Runtime backend.
//
// One OS thread per process; per-process mailboxes play the role of the
// datagram subnet (the Network still decides loss, omission and latency —
// a dropped copy is simply never posted). Rounds are paced off
// std::chrono::steady_clock: round r opens no earlier than
// epoch + round_start(r) * tick_duration.
//
// Mailbox structure: the round barrier already orders everything one
// round writes before everything the next round reads, so the mailboxes
// need no lock, ring or sequence number. Each consumer context owns, per
// worker producer, one task vector for even rounds and one for odd
// rounds. Worker p, executing round r, appends a post for another context
// to that context's rounds[r & 1][p]; the consumer's first drain of round
// r+1 moves rounds[r & 1] into its private pending list. Producers of
// round r+1 write the other parity, and the next write to rounds[r & 1]
// comes in round r+2, after the consumer has parked — so every buffer has
// exactly one writer or one reader at a time and each (producer, consumer)
// channel stays FIFO. A post to the caller's own context goes straight
// into pending, so a zero-delay task to self still runs in the same round;
// a post from the driver thread goes to the consumer's `host` vector,
// which the driver writes only while the workers are parked. The consumer
// then executes the due tasks in (due, post-order) order; not-yet-due
// tasks (e.g. transport retries) stay in pending.
//
// Execution model per round r (driver thread = the caller of run_until*):
//   1. driver waits for the steady-clock round boundary, advances now()
//      to round_start(r), optionally evaluates the quiescence predicate —
//      every worker is parked at the barrier, so the predicate may read
//      protocol state freely;
//   2. driver executes its own due mailbox tasks and host round handlers
//      (workload generation, samplers);
//   3. driver releases the barrier; every worker concurrently drains the
//      datagrams due by this boundary, then runs its round handlers
//      (request/decision logic, which posts into other mailboxes), then
//      parks again.
// A datagram posted during round r is collected by its receiver at the
// first drain of round r+1 and runs then (or later, if not due yet), so
// the receiver processes it before its r+1 handler — the same "a message
// sent in a round arrives before the next boundary" guarantee the
// simulator provides, now with real concurrency between the barriers.
//
// Shutdown: shutdown() (also run by the destructor) stops and joins every
// worker; pending mailbox tasks are never executed, but they are counted —
// discarded_on_shutdown() reports the loss and, when a registry is
// attached, the count lands in the host-shard `runtime.mailbox_discarded`
// counter, so silent shutdown loss is visible.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "runtime/runtime.hpp"

namespace urcgc::rt {

struct ThreadedConfig {
  /// Number of process execution contexts (one thread each).
  int n = 1;
  RoundClock clock{};
  /// Wall-clock duration of one tick; rounds are released against
  /// steady_clock at this rate. Zero = free-running (rounds proceed as
  /// fast as the barrier allows; ordering guarantees are unchanged).
  std::chrono::nanoseconds tick_duration = std::chrono::microseconds(50);
  /// Optional observability registry: the runtime records rounds run and
  /// the release lag (how late each round opened versus its steady-clock
  /// target) on the host shard — driver-context only, per the registry's
  /// thread-safety contract.
  obs::Registry* metrics = nullptr;
};

class ThreadedRuntime : public Runtime {
 public:
  explicit ThreadedRuntime(ThreadedConfig config);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  [[nodiscard]] Tick now() const override {
    return now_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const RoundClock& clock() const override { return clock_; }

  using Runtime::after;
  void post(ProcessId owner, Tick delay, EventFn fn) override;

  using Runtime::on_round;
  void on_round(ProcessId owner, RoundHandler handler) override;

  Tick run_until(Tick limit) override;
  Tick run_until_quiescent(Tick limit,
                           const std::function<bool()>& predicate) override;

  /// Stops and joins the worker threads; pending tasks are counted into
  /// discarded_on_shutdown() (and `runtime.mailbox_discarded`), never
  /// executed. Idempotent; also called by the destructor. After shutdown
  /// the runtime cannot run again.
  void shutdown();

  [[nodiscard]] int contexts() const { return config_.n; }
  /// Rounds completed so far (diagnostics).
  [[nodiscard]] RoundId rounds_run() const { return next_round_; }
  /// Tasks that were still pending when shutdown() joined the workers.
  /// Valid after shutdown; 0 before.
  [[nodiscard]] std::uint64_t discarded_on_shutdown() const {
    return discarded_on_shutdown_;
  }
  /// Always 0: round-parity mailboxes are unbounded vectors and cannot
  /// overflow. Kept so readers of the former ring-overflow diagnostic
  /// still build.
  [[nodiscard]] std::uint64_t ring_overflows() const { return 0; }

 protected:
  // --- Extension points for derived runtimes (e.g. SocketRuntime) -------
  // All three default to no-ops; every call site documents which thread
  // invokes it. Derived classes must call shutdown() from their own
  // destructor so discard_external() still dispatches to them.

  /// Called at the top of drain() on context `idx`'s consumer thread,
  /// once per drain. A derived runtime pulls externally-arrived work
  /// (e.g. socket datagrams) and hands it over via enqueue_local().
  virtual void collect_external(int idx, Tick cutoff) {
    (void)idx;
    (void)cutoff;
  }
  /// Called on context `idx`'s thread after its round work is complete —
  /// for workers after the second drain, for the driver just before the
  /// barrier opens — so buffered output (e.g. a tx datagram batch) is
  /// visible to every other context's next collect_external().
  virtual void flush_external(int idx) { (void)idx; }
  /// Called once inside shutdown() after the workers are joined; returns
  /// the number of externally-buffered tasks that will never run, to be
  /// added to discarded_on_shutdown().
  virtual std::uint64_t discard_external() { return 0; }

  /// Enqueue a task directly into context `idx`'s consumer-owned pending
  /// list. Must only be called from that context's consumer thread (i.e.
  /// from within collect_external, or from a task/handler of `idx`).
  void enqueue_local(int idx, Tick due, EventFn fn);

  /// Worker index of the calling thread, or -1 when the caller is not one
  /// of this runtime's workers (driver, external threads).
  [[nodiscard]] int current_worker() const;

  [[nodiscard]] const ThreadedConfig& threaded_config() const {
    return config_;
  }

 private:
  struct Task {
    Tick due = 0;
    std::uint64_t order = 0;  // global post order: stable tie-break
    EventFn fn;
  };

  /// One mailbox per execution context; index n is the driver context.
  /// `handlers` is written before the first round or, mid-run, only from
  /// this context's own thread (see on_round), so the iterating thread is
  /// the mutating thread. `rounds[parity][p]` is written by worker p during
  /// rounds of that parity and read by this context's thread in the next
  /// round; `host` is written by the driver thread between rounds; `pending`
  /// and `due` belong to this context's thread alone.
  struct Mailbox {
    std::vector<RoundHandler> handlers;
    std::array<std::vector<std::vector<Task>>, 2> rounds;  // [parity][worker]
    std::vector<Task> host;
    std::vector<Task> pending;  // consumer-owned carry-over
    std::vector<Task> due;      // consumer-owned drain scratch
  };

  void worker_loop(int idx);
  /// Moves the posts that became visible at the opening of round `r` —
  /// those made by workers in round r-1, and the driver's — into context
  /// `idx`'s pending list. Called once per round, before the first drain,
  /// on the context's consumer thread.
  void collect(int idx, RoundId r);
  /// Executes every pending task of context `idx` due at or before
  /// `cutoff`, in (due, post-order) order; the tasks may post into any
  /// mailbox. Must only be called from the context's consumer thread.
  void drain(int idx, Tick cutoff);
  Tick run_rounds(Tick limit, const std::function<bool()>* predicate);

  ThreadedConfig config_;
  RoundClock clock_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> threads_;

  std::atomic<Tick> now_{0};
  std::atomic<std::uint64_t> post_order_{0};
  // True while the barrier is open: set and cleared by the driver around
  // each round, read by post() to reject posts from foreign threads.
  std::atomic<bool> workers_running_{false};

  // Round-barrier state, guarded by barrier_mu_.
  std::mutex barrier_mu_;
  std::condition_variable cv_open_;  // driver -> workers: round released
  std::condition_variable cv_done_;  // workers -> driver: context parked
  RoundId open_round_ = -1;
  int done_count_ = 0;
  bool stop_ = false;

  RoundId next_round_ = 0;
  // Pacing anchor for the current run_until* call. Re-established at the
  // start of every run: a pause between calls (the driver doing other
  // work) must not leave the schedule in the past, or the backlog of
  // "overdue" rounds would burst through with no pacing at all.
  std::chrono::steady_clock::time_point epoch_{};

  bool shut_down_ = false;
  std::uint64_t discarded_on_shutdown_ = 0;

  obs::Metric m_rounds_{};
  obs::Metric m_release_lag_{};
  obs::Metric m_discarded_{};
};

}  // namespace urcgc::rt
