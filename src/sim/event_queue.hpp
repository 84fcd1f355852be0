#pragma once
// Time-ordered event queue for the discrete-event simulator.
//
// Events at the same tick execute in insertion (FIFO) order, which makes
// runs bit-for-bit reproducible for a given seed: determinism is the
// foundation of every experiment in this repo.
//
// The FIFO tie-break can be replaced by a seeded permutation
// (set_tiebreak_salt): events with equal (time, priority) then execute in
// an order keyed by a hash of (insertion index, salt). Still fully
// deterministic for a given salt, but each salt explores a different
// same-tick interleaving — the schedule-exploration checker (src/check)
// sweeps salts to hunt for order-dependent protocol bugs.

#include <cstdint>
#include <queue>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/event_fn.hpp"

namespace urcgc::sim {

using EventFn = rt::EventFn;

class EventQueue {
 public:
  /// Schedules `fn` to run at absolute time `at`. `at` must not precede the
  /// last popped event's time (no scheduling into the past). At equal
  /// times, lower `priority` runs first; equal priorities run FIFO (or in
  /// salted order, see set_tiebreak_salt). The simulator reserves priority
  /// 0 for round-boundary events so that round handlers always observe the
  /// state as of the boundary.
  void schedule(Tick at, EventFn fn, int priority = 1);

  /// Replaces the FIFO tie-break among equal (time, priority) events with
  /// a deterministic pseudo-random permutation keyed by `salt` (0 restores
  /// FIFO). Applies to events scheduled after the call; priority-0 events
  /// (round boundaries) keep running before the rest of their tick either
  /// way. Set before the run starts for a fully salted schedule.
  void set_tiebreak_salt(std::uint64_t salt) { salt_ = salt; }
  [[nodiscard]] std::uint64_t tiebreak_salt() const { return salt_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; queue must be non-empty.
  [[nodiscard]] Tick next_time() const;

  /// Pops and returns the earliest event (FIFO among equal times).
  [[nodiscard]] std::pair<Tick, EventFn> pop();

  /// Discards all pending events.
  void clear();

 private:
  // The heap orders small trivially copyable entries; each closure stays
  // put in `fns_` at the entry's slot until it is popped, so sifting never
  // moves a closure.
  struct Entry {
    Tick at;
    int priority;         // lower runs first at equal times
    std::uint32_t slot;   // index into fns_
    std::uint64_t key;    // tie-break: insertion index, or its salted hash
    std::uint64_t order;  // global insertion counter (total-order fallback)
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.key != b.key) return a.key > b.key;
      return a.order > b.order;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;  // empty fns_ entries to reuse
  std::uint64_t next_order_ = 0;
  std::uint64_t salt_ = 0;
  Tick last_popped_ = 0;
};

}  // namespace urcgc::sim
