#include "sim/event_queue.hpp"

#include <utility>

namespace urcgc::sim {

void EventQueue::schedule(Tick at, EventFn fn, int priority) {
  URCGC_ASSERT_MSG(at >= last_popped_, "scheduling into the past");
  const std::uint64_t order = next_order_++;
  std::uint64_t key = order;
  if (salt_ != 0) {
    std::uint64_t mix = order ^ salt_;
    key = splitmix64(mix);
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  heap_.push(Entry{at, priority, slot, key, order});
}

Tick EventQueue::next_time() const {
  URCGC_ASSERT(!heap_.empty());
  return heap_.top().at;
}

std::pair<Tick, EventFn> EventQueue::pop() {
  URCGC_ASSERT(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  EventFn fn = std::move(fns_[top.slot]);
  free_slots_.push_back(top.slot);
  last_popped_ = top.at;
  return {top.at, std::move(fn)};
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  fns_.clear();
  free_slots_.clear();
}

}  // namespace urcgc::sim
