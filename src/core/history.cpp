#include "core/history.hpp"

#include <utility>

#include "common/assert.hpp"

namespace urcgc::core {

void History::OriginIndex::grow() {
  std::vector<SlotId> bigger(ring_.empty() ? 2 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = at(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

void History::OriginIndex::insert(std::size_t pos, SlotId id) {
  if (size_ == ring_.size()) grow();
  const std::size_t mask = ring_.size() - 1;
  if (pos == 0) {
    // Below the current minimum: a store after a purge, or out of order.
    head_ = (head_ + mask) & mask;
  } else {
    // Appending (pos == size_) moves nothing; a store into a hole shifts
    // the entries above it up by one.
    for (std::size_t i = size_; i > pos; --i) slot_at(i) = slot_at(i - 1);
  }
  ++size_;
  slot_at(pos) = id;
}

std::size_t History::lower_bound(const OriginIndex& index, Seq seq) const {
  // Appends (the in-order common case) return after one comparison.
  if (index.empty()) return 0;
  if (seq > seq_at(index, index.size() - 1)) return index.size();
  if (seq <= seq_at(index, 0)) return 0;
  // Dense sequences (the common case) place seq at a fixed offset from the
  // front; holes fall back to binary search.
  const auto guess = static_cast<std::uint64_t>(seq - seq_at(index, 0));
  if (guess < index.size() && seq_at(index, guess) == seq) return guess;
  std::size_t lo = 0;
  std::size_t hi = index.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (seq_at(index, mid) < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

History::SlotId History::acquire_slot() {
  if (free_.empty()) {
    const std::size_t first = slot_capacity();
    chunks_.push_back(std::make_unique<AppMessage[]>(kChunkSlots));
    // Hand out the new chunk lowest id first.
    for (std::size_t i = kChunkSlots; i > 0; --i) {
      free_.push_back(static_cast<SlotId>(first + i - 1));
    }
  }
  const SlotId id = free_.back();
  free_.pop_back();
  return id;
}

const AppMessage* History::store(AppMessage&& msg) {
  URCGC_ASSERT(msg.mid.valid());
  URCGC_ASSERT(valid_origin(msg.mid.origin));
  OriginIndex& index = origins_[msg.mid.origin];
  const Seq seq = msg.mid.seq;
  const std::size_t pos = lower_bound(index, seq);
  if (pos < index.size() && seq_at(index, pos) == seq) return nullptr;

  const SlotId id = acquire_slot();
  AppMessage& stored = slot(id);
  stored = std::move(msg);
  index.insert(pos, id);
  ++total_;
  ++version_;
  return &stored;
}

const AppMessage* History::find(const Mid& mid) const {
  if (!valid_origin(mid.origin)) return nullptr;
  const OriginIndex& index = origins_[mid.origin];
  const std::size_t pos = lower_bound(index, mid.seq);
  if (pos == index.size() || seq_at(index, pos) != mid.seq) return nullptr;
  return &slot(index.at(pos));
}

std::vector<AppMessage> History::range(ProcessId origin, Seq from_seq,
                                       Seq to_seq,
                                       std::size_t max_count) const {
  std::vector<AppMessage> result;
  for_each_in_range(origin, from_seq, to_seq, max_count,
                    [&](const AppMessage& msg) { result.push_back(msg); });
  return result;
}

std::size_t History::purge_upto(ProcessId origin, Seq upto) {
  if (!valid_origin(origin)) return 0;
  OriginIndex& index = origins_[origin];
  std::size_t purged = 0;
  while (!index.empty() && seq_at(index, 0) <= upto) {
    const SlotId id = index.front();
    // Unpin the message's frame now (a refcount drop) and free spilled
    // deps; the slot itself is kept for reuse. The two fields are reset in
    // place: assigning an AppMessage{} would zero-fill a temporary first.
    AppMessage& purged_msg = slot(id);
    purged_msg.payload = wire::Slice();
    purged_msg.deps = causal::DepList();
    free_.push_back(id);
    index.pop_front();
    ++purged;
  }
  total_ -= purged;
  if (purged > 0) ++version_;
  return purged;
}

Seq History::max_stored(ProcessId origin) const {
  if (!valid_origin(origin) || origins_[origin].empty()) return kNoSeq;
  return slot(origins_[origin].back()).mid.seq;
}

Seq History::min_stored(ProcessId origin) const {
  if (!valid_origin(origin) || origins_[origin].empty()) return kNoSeq;
  return slot(origins_[origin].front()).mid.seq;
}

}  // namespace urcgc::core
