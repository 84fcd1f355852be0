#include "causal/waiting_list.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace urcgc::causal {

std::uint32_t WaitingList::alloc_slot() {
  if (free_slot_ == kNil) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slot_;
  free_slot_ = slots_[slot].link;
  return slot;
}

std::uint32_t WaitingList::alloc_edge() {
  if (free_edge_ == kNil) {
    edges_.emplace_back();
    return static_cast<std::uint32_t>(edges_.size() - 1);
  }
  const std::uint32_t e = free_edge_;
  free_edge_ = edges_[e].next;
  return e;
}

void WaitingList::free_edge(std::uint32_t e) {
  edges_[e].next = free_edge_;
  free_edge_ = e;
}

void WaitingList::free_slot(std::uint32_t slot) {
  slots_[slot].missing = 0;
  slots_[slot].link = free_slot_;
  free_slot_ = slot;
}

bool WaitingList::add(PendingMessage msg, std::span<const Mid> missing) {
  URCGC_ASSERT_MSG(!missing.empty(), "waiting message with no missing deps");
  if (contains(msg.mid)) return false;
  const Mid mid = msg.mid;
  const std::uint32_t slot = alloc_slot();
  slots_[slot].msg = std::move(msg);
  slots_[slot].link = kNil;
  std::uint32_t linked = 0;
  for (const Mid& dep : missing) {
    std::uint32_t* head = blocked_on_.find(dep);
    std::uint32_t e = kNil;
    if (head == nullptr) {
      e = alloc_edge();
      edges_[e].prev = e;
      blocked_on_.insert(dep, e);
    } else {
      // This entry's edges are appended last, so a repeated mid in
      // `missing` finds the entry itself at the tail.
      const std::uint32_t tail = edges_[*head].prev;
      if (edges_[tail].waiter == slot) continue;
      e = alloc_edge();
      edges_[tail].next = e;
      edges_[e].prev = tail;
      edges_[*head].prev = e;
    }
    Edge& edge = edges_[e];
    edge.dep_seq = dep.seq;
    edge.dep_origin = dep.origin;
    edge.waiter = slot;
    edge.next = kNil;
    edge.sib_prev = kNil;
    edge.sib_next = slots_[slot].link;
    if (edge.sib_next != kNil) edges_[edge.sib_next].sib_prev = e;
    slots_[slot].link = e;
    ++linked;
  }
  slots_[slot].missing = linked;
  entries_.insert(mid, slot);
  return true;
}

void WaitingList::unlink_from_waiter(std::uint32_t e) {
  const Edge& edge = edges_[e];
  if (edge.sib_prev == kNil) {
    slots_[edge.waiter].link = edge.sib_next;
  } else {
    edges_[edge.sib_prev].sib_next = edge.sib_next;
  }
  if (edge.sib_next != kNil) edges_[edge.sib_next].sib_prev = edge.sib_prev;
}

void WaitingList::unlink_from_dep(std::uint32_t e) {
  const Edge& edge = edges_[e];
  const Mid dep{edge.dep_origin, edge.dep_seq};
  std::uint32_t* head = blocked_on_.find(dep);
  URCGC_ASSERT(head != nullptr);
  if (*head == e) {
    if (edge.next == kNil) {
      blocked_on_.erase(dep);
    } else {
      edges_[edge.next].prev = edge.prev;
      *head = edge.next;
    }
    return;
  }
  edges_[edge.prev].next = edge.next;
  const std::uint32_t after = edge.next == kNil ? *head : edge.next;
  edges_[after].prev = edge.prev;
}

void WaitingList::remove_entry(std::uint32_t slot) {
  Entry& entry = slots_[slot];
  for (std::uint32_t e = entry.link; e != kNil;) {
    const std::uint32_t next = edges_[e].sib_next;
    unlink_from_dep(e);
    free_edge(e);
    e = next;
  }
  entries_.erase(entry.msg.mid);
  free_slot(slot);
}

void WaitingList::on_processed(const Mid& mid,
                               std::vector<PendingMessage>& released) {
  const std::uint32_t* head = blocked_on_.find(mid);
  if (head == nullptr) return;
  std::uint32_t e = *head;
  blocked_on_.erase(mid);

  // Only the dependents of `mid` are examined — the stats invariant the
  // wake-path tests pin down. The list is in arrival order, and so is
  // `ready_`.
  ready_.clear();
  while (e != kNil) {
    const std::uint32_t next = edges_[e].next;
    const std::uint32_t waiter = edges_[e].waiter;
    ++stats_.wake_checks;
    unlink_from_waiter(e);
    free_edge(e);
    if (--slots_[waiter].missing == 0) ready_.push_back(waiter);
    e = next;
  }
  stats_.releases += ready_.size();
  for (const std::uint32_t slot : ready_) {
    Entry& entry = slots_[slot];
    entries_.erase(entry.msg.mid);
    released.push_back(std::move(entry.msg));
    free_slot(slot);
  }
}

std::optional<Seq> WaitingList::oldest_waiting(ProcessId origin) const {
  Seq oldest = kNoSeq;
  entries_.for_each([&](const Mid& mid, std::uint32_t) {
    if (mid.origin == origin && (oldest == kNoSeq || mid.seq < oldest)) {
      oldest = mid.seq;
    }
  });
  if (oldest == kNoSeq) return std::nullopt;
  return oldest;
}

void WaitingList::oldest_waiting_into(std::span<Seq> out) const {
  std::fill(out.begin(), out.end(), kNoSeq);
  entries_.for_each([&](const Mid& mid, std::uint32_t) {
    const auto origin = static_cast<std::size_t>(mid.origin);
    if (mid.origin < 0 || origin >= out.size()) return;
    if (out[origin] == kNoSeq || mid.seq < out[origin]) out[origin] = mid.seq;
  });
}

std::vector<Mid> WaitingList::missing_mids() const {
  std::vector<Mid> result;
  result.reserve(blocked_on_.size());
  blocked_on_.for_each(
      [&](const Mid& mid, std::uint32_t) { result.push_back(mid); });
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<Mid> WaitingList::discard_depending_on(ProcessId origin,
                                                   Seq gap_seq) {
  // Seed: waiting messages with a dependency on (origin, s >= gap_seq), or
  // generated by origin with seq >= gap_seq (their self-predecessor chain
  // crosses the gap).
  std::vector<Mid> to_discard;
  entries_.for_each([&](const Mid& mid, std::uint32_t slot) {
    const DepList& deps = slots_[slot].msg.deps;
    const bool doomed =
        (mid.origin == origin && mid.seq >= gap_seq) ||
        std::any_of(deps.begin(), deps.end(), [&](const Mid& dep) {
          return dep.origin == origin && dep.seq >= gap_seq;
        });
    if (doomed) to_discard.push_back(mid);
  });

  // Transitive closure over waiting messages: anything blocked on a doomed
  // message is doomed too.
  std::vector<Mid> discarded;
  while (!to_discard.empty()) {
    const Mid mid = to_discard.back();
    to_discard.pop_back();
    const std::uint32_t* slot = entries_.find(mid);
    if (slot == nullptr) continue;
    const std::uint32_t doomed = *slot;
    if (const std::uint32_t* head = blocked_on_.find(mid)) {
      for (std::uint32_t e = *head; e != kNil; e = edges_[e].next) {
        to_discard.push_back(slots_[edges_[e].waiter].msg.mid);
      }
    }
    remove_entry(doomed);
    slots_[doomed].msg = PendingMessage{};
    discarded.push_back(mid);
  }
  std::sort(discarded.begin(), discarded.end());
  return discarded;
}

std::optional<PendingMessage> WaitingList::extract(const Mid& mid) {
  const std::uint32_t* slot = entries_.find(mid);
  if (slot == nullptr) return std::nullopt;
  const std::uint32_t found = *slot;
  remove_entry(found);
  return std::move(slots_[found].msg);
}

}  // namespace urcgc::causal
