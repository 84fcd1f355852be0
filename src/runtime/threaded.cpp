#include "runtime/threaded.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace urcgc::rt {

namespace {
// Identity of the calling thread: workers register themselves in
// worker_loop and record the round they are executing, which picks the
// parity buffer their posts go to. A thread that is not a worker of *this*
// runtime (the driver, workers of another runtime) sees -1.
thread_local const void* t_owner = nullptr;
thread_local int t_worker = -1;
thread_local RoundId t_round = 0;
}  // namespace

ThreadedRuntime::ThreadedRuntime(ThreadedConfig config)
    : config_(config), clock_(config.clock) {
  URCGC_ASSERT(config_.n >= 1);
  URCGC_ASSERT(config_.tick_duration.count() >= 0);
  if (config_.metrics != nullptr) {
    m_rounds_ = config_.metrics->counter("runtime.rounds");
    m_release_lag_ = config_.metrics->histogram(
        "runtime.release_lag_us", obs::HistogramSpec{0.0, 500.0, 25});
    m_discarded_ = config_.metrics->counter("runtime.mailbox_discarded");
  }
  mailboxes_.reserve(static_cast<std::size_t>(config_.n) + 1);
  for (int i = 0; i <= config_.n; ++i) {
    auto mailbox = std::make_unique<Mailbox>();
    for (auto& by_worker : mailbox->rounds) by_worker.resize(config_.n);
    mailboxes_.push_back(std::move(mailbox));
  }
  threads_.reserve(config_.n);
  for (int i = 0; i < config_.n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void ThreadedRuntime::shutdown() {
  {
    std::lock_guard<std::mutex> lk(barrier_mu_);
    stop_ = true;
  }
  cv_open_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (shut_down_) return;
  shut_down_ = true;
  // Workers are joined: every mailbox is quiescent, so the count below is
  // exact. Nothing here is executed — a task that survived to shutdown
  // belongs to a round that never opened.
  std::uint64_t discarded = 0;
  for (auto& mailbox : mailboxes_) {
    discarded += mailbox->host.size() + mailbox->pending.size();
    for (auto& by_worker : mailbox->rounds) {
      for (auto& tasks : by_worker) discarded += tasks.size();
    }
  }
  discarded += discard_external();
  discarded_on_shutdown_ = discarded;
  if (config_.metrics != nullptr && discarded > 0) {
    config_.metrics->add(kNoProcess, m_discarded_, discarded);
  }
}

void ThreadedRuntime::post(ProcessId owner, Tick delay, EventFn fn) {
  URCGC_ASSERT(delay >= 0);
  URCGC_ASSERT(owner == kNoProcess || (owner >= 0 && owner < config_.n));
  const int idx = owner == kNoProcess ? config_.n : owner;
  Task task{now() + delay, post_order_.fetch_add(1, std::memory_order_relaxed),
            std::move(fn)};
  Mailbox& mailbox = *mailboxes_[idx];
  const int worker = current_worker();
  if (worker == idx) {
    mailbox.pending.push_back(std::move(task));
  } else if (worker >= 0) {
    mailbox.rounds[t_round & 1][static_cast<std::size_t>(worker)].push_back(
        std::move(task));
  } else {
    // `host` has no lock: the barrier is what keeps the driver's writes
    // apart from the consumers' reads.
    URCGC_ASSERT_MSG(!workers_running_.load(std::memory_order_relaxed),
                     "threaded backend: post from a thread that is neither a "
                     "worker nor the driver between rounds");
    mailbox.host.push_back(std::move(task));
  }
}

int ThreadedRuntime::current_worker() const {
  return t_owner == this ? t_worker : -1;
}

void ThreadedRuntime::enqueue_local(int idx, Tick due, EventFn fn) {
  Task task{due, post_order_.fetch_add(1, std::memory_order_relaxed),
            std::move(fn)};
  mailboxes_[idx]->pending.push_back(std::move(task));
}

void ThreadedRuntime::on_round(ProcessId owner, RoundHandler handler) {
  URCGC_ASSERT(owner == kNoProcess || (owner >= 0 && owner < config_.n));
  // Before the first round runs, any thread may register (assembly phase).
  // Mid-run, registration is allowed only from the owner's own execution
  // context — a posted closure attaching a joiner to its round heartbeat,
  // or the driver thread inside run_rounds — so the handler vector is only
  // ever mutated by the thread that also iterates it.
  URCGC_ASSERT_MSG(
      next_round_ == 0 ||
          (owner == kNoProcess ? current_worker() == -1
                               : current_worker() == owner),
      "threaded backend: mid-run round-handler registration must come from "
      "the owner's execution context");
  const int idx = owner == kNoProcess ? config_.n : owner;
  mailboxes_[idx]->handlers.push_back(std::move(handler));
}

void ThreadedRuntime::collect(int idx, RoundId r) {
  Mailbox& mailbox = *mailboxes_[idx];
  auto take = [&mailbox](std::vector<Task>& tasks) {
    for (Task& task : tasks) mailbox.pending.push_back(std::move(task));
    tasks.clear();
  };
  // Round r-1's parity; producers are writing round r's parity right now.
  for (auto& tasks : mailbox.rounds[(r + 1) & 1]) take(tasks);
  take(mailbox.host);
}

void ThreadedRuntime::drain(int idx, Tick cutoff) {
  Mailbox& mailbox = *mailboxes_[idx];
  collect_external(idx, cutoff);
  // Due-times are not monotone in post order (a transport retry outlives
  // the round), so due/not-yet-due is decided on the whole pending list;
  // the sort below fixes the execution order, post order breaking ties.
  auto split = std::partition(
      mailbox.pending.begin(), mailbox.pending.end(),
      [cutoff](const Task& t) { return t.due > cutoff; });
  mailbox.due.assign(std::make_move_iterator(split),
                     std::make_move_iterator(mailbox.pending.end()));
  mailbox.pending.erase(split, mailbox.pending.end());
  std::sort(mailbox.due.begin(), mailbox.due.end(),
            [](const Task& a, const Task& b) {
              return a.due != b.due ? a.due < b.due : a.order < b.order;
            });
  for (Task& task : mailbox.due) task.fn();
  mailbox.due.clear();
}

void ThreadedRuntime::worker_loop(int idx) {
  t_owner = this;
  t_worker = idx;
  RoundId done_round = -1;
  for (;;) {
    RoundId r;
    {
      std::unique_lock<std::mutex> lk(barrier_mu_);
      cv_open_.wait(lk, [&] { return stop_ || open_round_ > done_round; });
      if (stop_) break;
      r = open_round_;
    }
    t_round = r;
    const Tick start = clock_.round_start(r);
    // Datagrams due by this boundary first, then the round logic: the
    // coordinator must see the requests of the previous round before it
    // computes the decision, exactly as in the simulator.
    collect(idx, r);
    drain(idx, start);
    // By index: a drained task (or a handler) may register a new handler
    // for this context mid-iteration, growing the vector.
    auto& handlers = mailboxes_[idx]->handlers;
    for (std::size_t h = 0; h < handlers.size(); ++h) handlers[h](r);
    // Catch zero-delay posts made by our own handlers. Only pending: the
    // current parity is still being written by the other workers.
    drain(idx, start);
    // Publish buffered output (e.g. a socket tx batch) before parking, so
    // every other context's next round sees this round's sends.
    flush_external(idx);
    done_round = r;
    {
      std::lock_guard<std::mutex> lk(barrier_mu_);
      ++done_count_;
    }
    cv_done_.notify_one();
  }
  t_owner = nullptr;
  t_worker = -1;
}

Tick ThreadedRuntime::run_rounds(Tick limit,
                                 const std::function<bool()>* predicate) {
  URCGC_ASSERT_MSG(!threads_.empty() || config_.n == 0,
                   "threaded backend: run after shutdown");
  // Re-anchor the pacing epoch for *this* call: whatever wall-clock time
  // elapsed between run calls (driver-side work, a deliberate pause) did
  // not advance the tick clock, so the schedule must restart from here.
  // Anchoring only once — on the first call — left every subsequent
  // round's target in the past after a pause, and the backlog burst
  // through back-to-back with no pacing until the schedule caught up.
  epoch_ = std::chrono::steady_clock::now() -
           clock_.round_start(next_round_) * config_.tick_duration;
  while (clock_.round_start(next_round_) <= limit) {
    const RoundId r = next_round_;
    const Tick start = clock_.round_start(r);
    if (config_.tick_duration.count() > 0) {
      const auto target = epoch_ + start * config_.tick_duration;
      std::this_thread::sleep_until(target);
      if (config_.metrics != nullptr) {
        const auto lag = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - target);
        config_.metrics->observe(kNoProcess, m_release_lag_,
                                 static_cast<double>(lag.count()) / 1000.0);
      }
    }
    now_.store(start, std::memory_order_release);
    // All workers are parked here, so the predicate may read protocol
    // state without synchronisation beyond the barrier itself. Skip the
    // very first boundary: nothing has executed yet.
    if (predicate != nullptr && r > 0 && (*predicate)()) {
      return now();
    }
    collect(config_.n, r);
    drain(config_.n, start);
    auto& host_handlers = mailboxes_[config_.n]->handlers;
    for (std::size_t h = 0; h < host_handlers.size(); ++h) {
      host_handlers[h](r);
    }
    // Driver-context sends must be visible before the workers start the
    // round: flush before the barrier opens.
    flush_external(config_.n);
    {
      std::lock_guard<std::mutex> lk(barrier_mu_);
      workers_running_.store(true, std::memory_order_relaxed);
      open_round_ = r;
      done_count_ = 0;
    }
    cv_open_.notify_all();
    {
      std::unique_lock<std::mutex> lk(barrier_mu_);
      cv_done_.wait(lk, [&] { return done_count_ == config_.n; });
      workers_running_.store(false, std::memory_order_relaxed);
    }
    if (config_.metrics != nullptr) {
      config_.metrics->add(kNoProcess, m_rounds_);
    }
    ++next_round_;
  }
  return now();
}

Tick ThreadedRuntime::run_until(Tick limit) {
  return run_rounds(limit, nullptr);
}

Tick ThreadedRuntime::run_until_quiescent(
    Tick limit, const std::function<bool()>& predicate) {
  return run_rounds(limit, &predicate);
}

}  // namespace urcgc::rt
