#include "core/mt_entity.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace urcgc::core {

MtEntity::MtEntity(const Config& config, ProcessId self, Observer* observer)
    : config_(config),
      self_(self),
      observer_(observer),
      history_(config.n),
      processed_(config.n),
      clean_floor_(config.n, kNoSeq),
      purged_upto_(config.n, kNoSeq),
      report_dirty_((static_cast<std::size_t>(config.n) + 63) / 64) {
  mark_report_dirty_all();
}

bool MtEntity::processed(const Mid& mid) const {
  if (!mid.valid()) return true;  // "no message" is trivially processed
  if (mid.origin < 0 || mid.origin >= config_.n) return true;
  return processed_[mid.origin].contains(mid.seq);
}

MtEntity::SubmitResult MtEntity::submit(AppMessage msg, Tick now) {
  URCGC_ASSERT(msg.mid.valid());
  if (processed(msg.mid) || waiting_.contains(msg.mid)) {
    ++duplicates_;
    return SubmitResult::kDuplicate;
  }

  missing_.clear();
  for (const Mid& dep : msg.deps) {
    if (!processed(dep)) missing_.push_back(dep);
  }
  if (!missing_.empty()) {
    if (config_.waiting_cap > 0 && waiting_.size() >= config_.waiting_cap) {
      ++waiting_rejected_;
      return SubmitResult::kRejected;
    }
    // Parking moves the message into the waiting entry: inline deps and
    // the payload slice, no copy.
    causal::PendingMessage pending{msg.mid, std::move(msg.deps),
                                   msg.generated_at, now,
                                   std::move(msg.payload)};
    waiting_.add(std::move(pending), missing_);
    mark_report_dirty(msg.mid.origin);
    waiting_peak_ = std::max(waiting_peak_, waiting_.size());
    return SubmitResult::kParked;
  }

  process_now(std::move(msg), now);
  return SubmitResult::kProcessed;
}

void MtEntity::process_now(AppMessage msg, Tick now) {
  // A callback that re-enters submit() runs a nested process_now over the
  // segment past its own base and truncates it before returning, so this
  // call resumes exactly where it left off.
  const std::size_t base = queue_.size();
  std::size_t head = base;
  queue_.push_back(std::move(msg));
  while (head < queue_.size()) {
    const Mid mid = queue_[head].mid;
    URCGC_ASSERT_MSG(!processed(mid), "double processing");

    const AppMessage* stored = history_.store(std::move(queue_[head++]));
    URCGC_ASSERT(stored != nullptr);
    history_peak_ = std::max(history_peak_, history_.total_size());
    processed_[mid.origin].insert(mid.seq);
    mark_report_dirty(mid.origin);
    log_.push_back(mid);
    if (observer_ != nullptr) observer_->on_processed(self_, *stored, now);
    if (on_processed_) on_processed_(*stored);

    waiting_.on_processed(mid, released_);
    for (causal::PendingMessage& released : released_) {
      queue_.push_back(AppMessage{released.mid, std::move(released.deps),
                                  released.generated_at,
                                  std::move(released.payload)});
    }
    released_.clear();

    // Drop the consumed (moved-from) prefix once it outweighs what is
    // still pending: a long release chain then keeps the queue at its
    // fan-out instead of its length.
    const std::size_t consumed = head - base;
    if (consumed >= kCompactAfter && consumed >= queue_.size() - head) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(base),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head));
      head = base;
    }
  }
  queue_.resize(base);
}

void MtEntity::last_processed_into(std::vector<Seq>& out, int width) const {
  URCGC_ASSERT(width <= config_.n);
  out.resize(static_cast<std::size_t>(width));
  for (ProcessId j = 0; j < width; ++j) out[j] = processed_[j].prefix();
}

void MtEntity::oldest_waiting_into(std::vector<Seq>& out, int width) const {
  URCGC_ASSERT(width <= config_.n);
  out.resize(static_cast<std::size_t>(width));
  waiting_.oldest_waiting_into(out);
}

void MtEntity::mark_report_dirty_all() {
  std::fill(report_dirty_.begin(), report_dirty_.end(), ~std::uint64_t{0});
}

void MtEntity::report_overrides(const std::vector<Seq>& baseline,
                                std::vector<wire::SeqOverride>& processed,
                                std::vector<wire::SeqOverride>& waiting) {
  const int width = static_cast<int>(baseline.size());
  URCGC_ASSERT(width <= config_.n);
  processed.clear();
  waiting.clear();
  const bool parked = !waiting_.empty();
  if (parked) {
    oldest_scratch_.resize(baseline.size());
    waiting_.oldest_waiting_into(oldest_scratch_);
  }
  for_each_report_dirty(width, [&](ProcessId j) {
    const auto at = static_cast<std::size_t>(j);
    const Seq prefix = processed_[at].prefix();
    const Seq oldest = parked ? oldest_scratch_[at] : kNoSeq;
    const auto index = static_cast<std::uint16_t>(j);
    if (prefix != baseline[at]) processed.push_back({index, prefix});
    if (oldest != kNoSeq) waiting.push_back({index, oldest});
    if (prefix == baseline[at] && oldest == kNoSeq) {
      report_dirty_[at / 64] &= ~(std::uint64_t{1} << (at % 64));
    }
  });
}

std::vector<std::uint8_t> MtEntity::serve_recovery(
    const RecoverRq& rq) const {
  // Count one past the batch cap: an over-full range proves it holds more
  // than one batch, and the requester must keep pulling rather than treat
  // the truncated batch as "gap satisfied".
  const auto cap = static_cast<std::size_t>(config_.max_recover_batch);
  std::size_t bytes = kRecoverRspHeaderBytes;
  std::size_t held = 0;
  history_.for_each_in_range(rq.origin, rq.from_seq, rq.to_seq, cap + 1,
                             [&](const AppMessage& msg) {
                               if (held++ < cap) bytes += encoded_size(msg);
                             });
  if (held == 0) return {};
  const std::size_t batch = std::min(held, cap);
  RecoverRsp header;
  header.from = self_;
  header.origin = rq.origin;
  header.to_seq = rq.to_seq;
  header.truncated = held > cap;
  wire::Writer w(bytes);
  encode_recover_rsp_header(w, header, batch);
  history_.for_each_in_range(rq.origin, rq.from_seq, rq.to_seq, batch,
                             [&w](const AppMessage& msg) { encode(w, msg); });
  return std::move(w).take();
}

std::size_t MtEntity::clean(const std::vector<Seq>& clean_upto) {
  URCGC_ASSERT(static_cast<int>(clean_upto.size()) <= config_.n);
  std::size_t purged = 0;
  const int width = static_cast<int>(clean_upto.size());
  for (ProcessId j = 0; j < width; ++j) {
    purged += clean_origin(j, clean_upto[j]);
  }
  return purged;
}

std::size_t MtEntity::clean(const std::vector<Seq>& clean_upto,
                            std::span<const std::uint16_t> origins) {
  URCGC_ASSERT(static_cast<int>(clean_upto.size()) <= config_.n);
  std::size_t purged = 0;
  for (const std::uint16_t j : origins) {
    purged += clean_origin(j, clean_upto[j]);
  }
  return purged;
}

std::size_t MtEntity::clean_origin(ProcessId j, Seq upto) {
  if (upto == kNoSeq) return 0;
  // Cleaning a message we have not processed would violate the stability
  // invariant (our own report bounds the group minimum). When a deliberate
  // protocol mutation is active the faulty decision must survive as an
  // observable trace violation for the checker, so clamp instead of abort.
  if (config_.mutation != ProtocolMutation::kNone) {
    upto = std::min(upto, processed_[j].prefix());
  } else {
    URCGC_ASSERT_MSG(upto <= processed_[j].prefix(),
                     "cleaning point beyond local processed prefix");
  }
  if (upto <= purged_upto_[j]) return 0;  // nothing moved since last time
  const std::size_t purged = history_.purge_upto(j, upto);
  purged_upto_[j] = upto;
  clean_floor_[j] = std::max(clean_floor_[j], upto);
  return purged;
}

std::size_t MtEntity::adopt_baseline(const std::vector<Seq>& baseline,
                                     Tick now) {
  const int width =
      std::min(static_cast<int>(baseline.size()), config_.n);
  std::size_t adopted = 0;
  for (ProcessId j = 0; j < width; ++j) {
    const Seq before = processed_[j].prefix();
    processed_[j].adopt_prefix(baseline[j]);
    if (processed_[j].prefix() > before) {
      adopted += static_cast<std::size_t>(processed_[j].prefix() - before);
    }
    clean_floor_[j] = std::max(clean_floor_[j], baseline[j]);
  }
  if (adopted == 0) return 0;
  mark_report_dirty_all();

  // Parked copies the baseline now covers are duplicates: sweep them before
  // a release could route them through process_now a second time.
  for (ProcessId j = 0; j < width; ++j) {
    while (auto oldest = waiting_.oldest_waiting(j)) {
      if (!processed_[j].contains(*oldest)) break;
      if (!waiting_.extract(Mid{j, *oldest})) break;
      ++duplicates_;
    }
  }

  // Waiters blocked on dependencies the baseline satisfies become
  // processable (they were generated after the stable floor).
  // process_now() reuses released_, so this rare path keeps its own list.
  const std::vector<Mid> blocking = waiting_.missing_mids();
  std::vector<causal::PendingMessage> released;
  for (const Mid& mid : blocking) {
    if (!processed(mid)) continue;
    released.clear();
    waiting_.on_processed(mid, released);
    for (causal::PendingMessage& next : released) {
      if (processed(next.mid)) {
        ++duplicates_;
        continue;
      }
      process_now(AppMessage{next.mid, std::move(next.deps),
                             next.generated_at, std::move(next.payload)},
                  now);
    }
  }
  return adopted;
}

std::vector<Mid> MtEntity::discard_orphans(ProcessId origin, Seq gap_seq,
                                           Tick now) {
  std::vector<Mid> discarded = waiting_.discard_depending_on(origin, gap_seq);
  for (const Mid& mid : discarded) {
    if (observer_ != nullptr) observer_->on_discarded(self_, mid, now);
  }
  return discarded;
}

std::vector<MtEntity::MissingRange> MtEntity::missing_ranges() const {
  // missing_mids() is sorted by (origin, seq), so each origin's blocking
  // mids form one run whose first and last entries bound its span. Only
  // spans of mids not already received matter.
  std::vector<MissingRange> result;
  for (const Mid& mid : waiting_.missing_mids()) {
    if (waiting_.contains(mid)) continue;  // received, just not processable
    if (!result.empty() && result.back().origin == mid.origin) {
      result.back().to_seq = mid.seq;
      continue;
    }
    // Extend down to the first gap after the processed prefix: transitive
    // predecessors we have never seen are missing too even though no
    // waiting entry names them yet.
    const Seq from = std::min(processed_[mid.origin].first_gap(), mid.seq);
    result.push_back({mid.origin, from, mid.seq});
  }
  return result;
}

}  // namespace urcgc::core
