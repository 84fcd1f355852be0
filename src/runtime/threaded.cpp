#include "runtime/threaded.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace urcgc::rt {

namespace {
// Producer identity for the lock-free post path: worker threads register
// themselves on entry to worker_loop. A thread that is not a worker of
// *this* runtime (the driver, tests, workers of another runtime) takes the
// mutex spill path — that keeps every ring strictly single-producer.
thread_local const void* t_ring_owner = nullptr;
thread_local int t_ring_producer = -1;
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
    m_ring_overflow_ =
        config_.metrics->counter("runtime.mailbox_ring_overflow");
  }
  mailboxes_.reserve(static_cast<std::size_t>(config_.n) + 1);
  const auto n = static_cast<std::size_t>(config_.n);
  for (int i = 0; i <= config_.n; ++i) {
    auto mailbox = std::make_unique<Mailbox>();
    mailbox->rings.reserve(n);
    for (int p = 0; p < config_.n; ++p) {
      mailbox->rings.push_back(std::make_unique<SpscRing<Task>>(kRingCapacity));
    }
    mailbox->producer_seq.assign(n, 0);
    mailbox->seen_upto.assign(n, 0);
    mailbox->ooo.resize(n);
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
    discarded += mailbox->spill.size() + mailbox->pending.size();
    for (auto& ring : mailbox->rings) {
      Task task;
      while (ring->try_pop(task)) ++discarded;
    }
  }
  discarded += discard_external();
  discarded_on_shutdown_ = discarded;
  if (config_.metrics != nullptr) {
    if (discarded > 0) {
      config_.metrics->add(kNoProcess, m_discarded_, discarded);
    }
    const std::uint64_t overflows =
        ring_overflows_.load(std::memory_order_relaxed);
    if (overflows > 0) {
      config_.metrics->add(kNoProcess, m_ring_overflow_, overflows);
    }
  }
}

void ThreadedRuntime::post(ProcessId owner, Tick delay, EventFn fn) {
  URCGC_ASSERT(delay >= 0);
  URCGC_ASSERT(owner == kNoProcess || (owner >= 0 && owner < config_.n));
  const int idx = owner == kNoProcess ? config_.n : owner;
  Task task{now() + delay, post_order_.fetch_add(1, std::memory_order_relaxed),
            std::move(fn)};
  if (t_ring_owner == this) {
    Mailbox& mailbox = *mailboxes_[idx];
    // Stamp the channel sequence before attempting the push: whether this
    // task lands in the ring or spills, the consumer can tell whether any
    // channel predecessor is still uncollected and hold it back (drain
    // would otherwise execute a spilled task ahead of ring-resident
    // predecessors it has not seen yet — a per-channel FIFO violation).
    task.producer = t_ring_producer;
    task.seq =
        ++mailbox.producer_seq[static_cast<std::size_t>(t_ring_producer)];
    auto& ring = *mailbox.rings[t_ring_producer];
    if (ring.try_push(std::move(task))) return;
    // Ring full: spill to the mutex path below; the counter records that
    // the capacity was undersized for this burst.
    ring_overflows_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lk(mailboxes_[idx]->mu);
  mailboxes_[idx]->spill.push_back(std::move(task));
}

int ThreadedRuntime::current_worker() const {
  return t_ring_owner == this ? t_ring_producer : -1;
}

void ThreadedRuntime::enqueue_local(int idx, Tick due, EventFn fn) {
  Task task{due, post_order_.fetch_add(1, std::memory_order_relaxed),
            std::move(fn)};
  mailboxes_[idx]->pending.push_back(std::move(task));
}

void ThreadedRuntime::note_collected(Mailbox& mailbox, const Task& task) {
  if (task.producer < 0) return;
  const auto p = static_cast<std::size_t>(task.producer);
  std::uint64_t& upto = mailbox.seen_upto[p];
  auto& ooo = mailbox.ooo[p];
  if (task.seq == upto + 1) {
    ++upto;
    // Absorb buffered successors that became contiguous.
    std::size_t eat = 0;
    while (eat < ooo.size() && ooo[eat] == upto + 1) {
      ++upto;
      ++eat;
    }
    if (eat > 0) ooo.erase(ooo.begin(), ooo.begin() + static_cast<long>(eat));
  } else {
    ooo.insert(std::lower_bound(ooo.begin(), ooo.end(), task.seq), task.seq);
  }
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

void ThreadedRuntime::drain(int idx, Tick cutoff) {
  Mailbox& mailbox = *mailboxes_[idx];
  collect_external(idx, cutoff);
  // Coalesce: pull everything the producers published, then the spill,
  // into the consumer-private pending list. Rings are FIFO per producer
  // but task due-times are not monotone (a transport retry outlives the
  // round), so due/not-yet-due is decided on the merged list.
  for (auto& ring : mailbox.rings) {
    Task task;
    while (ring->try_pop(task)) {
      note_collected(mailbox, task);
      mailbox.pending.push_back(std::move(task));
    }
  }
  if (config_.test_between_ring_and_spill) {
    config_.test_between_ring_and_spill(idx, cutoff);
  }
  {
    std::lock_guard<std::mutex> lk(mailbox.mu);
    if (!mailbox.spill.empty()) {
      for (Task& task : mailbox.spill) {
        note_collected(mailbox, task);
        mailbox.pending.push_back(std::move(task));
      }
      mailbox.spill.clear();
    }
  }
  // A task executes only once it is due AND its channel prefix is fully
  // collected: a spilled task whose ring-resident predecessors were pushed
  // after our ring pass (ring-then-spill race) is held in pending; the next
  // drain collects the predecessors and releases it in post order.
  auto split = std::stable_partition(
      mailbox.pending.begin(), mailbox.pending.end(),
      [cutoff, &mailbox](const Task& t) {
        if (t.due > cutoff) return true;  // keep: not yet due
        return t.producer >= 0 &&
               t.seq >
                   mailbox.seen_upto[static_cast<std::size_t>(t.producer)];
      });
  std::vector<Task> due;
  due.assign(std::make_move_iterator(split),
             std::make_move_iterator(mailbox.pending.end()));
  mailbox.pending.erase(split, mailbox.pending.end());
  std::stable_sort(due.begin(), due.end(), [](const Task& a, const Task& b) {
    return a.due != b.due ? a.due < b.due : a.order < b.order;
  });
  for (Task& task : due) task.fn();
}

void ThreadedRuntime::worker_loop(int idx) {
  t_ring_owner = this;
  t_ring_producer = idx;
  RoundId done_round = -1;
  for (;;) {
    RoundId r;
    {
      std::unique_lock<std::mutex> lk(barrier_mu_);
      cv_open_.wait(lk, [&] { return stop_ || open_round_ > done_round; });
      if (stop_) break;
      r = open_round_;
    }
    const Tick start = clock_.round_start(r);
    // Datagrams due by this boundary first, then the round logic: the
    // coordinator must see the requests of the previous round before it
    // computes the decision, exactly as in the simulator.
    drain(idx, start);
    // By index: a drained task (or a handler) may register a new handler
    // for this context mid-iteration, growing the vector.
    auto& handlers = mailboxes_[idx]->handlers;
    for (std::size_t h = 0; h < handlers.size(); ++h) handlers[h](r);
    // Catch zero-delay posts made by our own handlers.
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
  t_ring_owner = nullptr;
  t_ring_producer = -1;
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
      open_round_ = r;
      done_count_ = 0;
    }
    cv_open_.notify_all();
    {
      std::unique_lock<std::mutex> lk(barrier_mu_);
      cv_done_.wait(lk, [&] { return done_count_ == config_.n; });
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
