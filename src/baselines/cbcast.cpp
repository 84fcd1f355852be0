#include "baselines/cbcast.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "runtime/clock.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace urcgc::baselines {

namespace {

constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kHeartbeat = 2;
constexpr std::uint8_t kFlushStart = 3;
constexpr std::uint8_t kFlushReport = 4;
constexpr std::uint8_t kNewView = 5;

void put_vc(wire::Writer& w, const causal::VectorClock& vc) {
  wire::put_seqs(w, vc.counts());
}

Result<causal::VectorClock, wire::DecodeError> get_vc(wire::Reader& r) {
  auto seqs = wire::get_seqs(r);
  if (!seqs) return Unexpected(seqs.error());
  return causal::VectorClock(std::move(seqs).value());
}

}  // namespace

CbcastProcess::CbcastProcess(const CbcastConfig& config, ProcessId self,
                             rt::Runtime& runtime,
                             net::TransportEndpoint& endpoint,
                             fault::FaultInjector& faults,
                             CbcastObserver* observer)
    : config_(config),
      self_(self),
      rt_(runtime),
      endpoint_(endpoint),
      faults_(faults),
      observer_(observer),
      vc_(config.n),
      members_(config.n, true),
      suspected_(config.n, false),
      seen_vc_(config.n, causal::VectorClock(config.n)),
      last_heard_(config.n, 0),
      flush_reported_(config.n, false) {
  URCGC_ASSERT(self >= 0 && self < config.n);
}

void CbcastProcess::start() {
  URCGC_ASSERT(!started_);
  started_ = true;
  endpoint_.set_upcall(
      [this](ProcessId src, std::span<const std::uint8_t> bytes) {
        on_payload(src, bytes);
      });
  rt_.on_round(self_, [this](RoundId round) { on_round(round); });
}

bool CbcastProcess::data_rq(std::vector<std::uint8_t> payload) {
  if (halted_) return false;
  user_queue_.push_back(std::move(payload));
  return true;
}

std::vector<ProcessId> CbcastProcess::live_members() const {
  std::vector<ProcessId> live;
  for (ProcessId q = 0; q < config_.n; ++q) {
    if (members_[q] && !suspected_[q]) live.push_back(q);
  }
  return live;
}

ProcessId CbcastProcess::flush_coordinator() const {
  const auto live = live_members();
  return live.empty() ? kNoProcess : live.front();
}

void CbcastProcess::note_heard(ProcessId q) {
  last_heard_[q] = rt_.now();
}

void CbcastProcess::on_round(RoundId /*round*/) {
  if (halted_) return;
  if (faults_.is_crashed(self_, rt_.now())) {
    halted_ = true;
    return;
  }

  // Failure detection: a member silent for K subruns becomes suspected.
  // While a flush is in progress the ordinary detector is suspended — the
  // only failure the flush can act on is its own coordinator's, detected
  // by the flush deadline. This serialises detection of pile-up failures,
  // which is exactly the cost model (one timeout per extra failure) the
  // paper charges CBCAST with.
  const Tick silence_budget =
      static_cast<Tick>(config_.k_attempts) *
      rt_.clock().ticks_per_subrun();
  if (!flushing_) {
    bool new_suspicion = false;
    for (ProcessId q = 0; q < config_.n; ++q) {
      if (q == self_ || !members_[q] || suspected_[q]) continue;
      if (rt_.now() - last_heard_[q] > silence_budget) {
        suspected_[q] = true;
        new_suspicion = true;
      }
    }
    if (new_suspicion) start_flush(view_id_ + 1);
  } else if (rt_.now() > flush_deadline_) {
    // The flush coordinator died too: suspect it, restart the flush.
    // Each such restart serialises another detection timeout — the source
    // of CBCAST's K(5f+6) blocking growth.
    const ProcessId coord = flush_coordinator();
    if (coord != kNoProcess && coord != self_) suspected_[coord] = true;
    start_flush(proposed_view_ + 1);
  }

  if (flushing_) {
    return;  // application traffic is suspended during the view change
  }

  if (!user_queue_.empty()) {
    auto payload = std::move(user_queue_.front());
    user_queue_.pop_front();
    broadcast_data(std::move(payload));
    rounds_since_send_ = 0;
  } else if (++rounds_since_send_ >= config_.heartbeat_every_rounds) {
    send_heartbeat();
    rounds_since_send_ = 0;
  }
  collect_stable();
}

void CbcastProcess::broadcast_data(std::vector<std::uint8_t> payload) {
  vc_.tick(self_);
  seen_vc_[self_] = vc_;

  DataMsg msg{self_, view_id_, vc_, std::move(payload)};
  const Mid mid{self_, vc_[self_]};
  if (observer_ != nullptr) observer_->on_generated(self_, mid, rt_.now());

  wire::Writer w(64 + msg.payload.size());
  w.u8(kData);
  w.i32(msg.sender);
  w.i32(msg.view_id);
  put_vc(w, msg.vc);
  w.bytes(msg.payload);
  auto frame = std::move(w).take();

  std::vector<ProcessId> dsts;
  for (ProcessId q : live_members()) {
    if (q != self_) dsts.push_back(q);
  }
  if (observer_ != nullptr) {
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      observer_->on_sent(self_, stats::MsgClass::kCbcastData, frame.size(),
                         rt_.now());
    }
  }
  if (!dsts.empty()) {
    endpoint_.data_rq(dsts, static_cast<int>(dsts.size()), std::move(frame));
  }

  deliver(msg);  // own messages deliver immediately
}

void CbcastProcess::send_heartbeat() {
  wire::Writer w(32);
  w.u8(kHeartbeat);
  w.i32(self_);
  w.i32(view_id_);
  put_vc(w, vc_);
  auto frame = std::move(w).take();

  std::vector<ProcessId> dsts;
  for (ProcessId q : live_members()) {
    if (q != self_) dsts.push_back(q);
  }
  if (observer_ != nullptr) {
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      observer_->on_sent(self_, stats::MsgClass::kCbcastStability,
                         frame.size(), rt_.now());
    }
  }
  if (!dsts.empty()) {
    endpoint_.data_rq(dsts, 1, std::move(frame));
  }
}

void CbcastProcess::deliver(const DataMsg& msg) {
  if (msg.sender != self_) {
    vc_.merge(msg.vc);
    seen_vc_[self_] = vc_;
  }
  const Mid mid{msg.sender, msg.vc[msg.sender]};
  log_.push_back(mid);
  unstable_.push_back(msg);
  if (observer_ != nullptr) observer_->on_delivered(self_, mid, rt_.now());
}

void CbcastProcess::try_deliver() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (vc_.deliverable(it->vc, it->sender)) {
        DataMsg msg = std::move(*it);
        holdback_.erase(it);
        deliver(msg);
        progressed = true;
        break;
      }
    }
  }
}

void CbcastProcess::collect_stable() {
  // A delivered message is stable once every live member's clock covers it.
  causal::VectorClock floor = vc_;
  for (ProcessId q : live_members()) {
    const auto& seen = seen_vc_[q];
    for (ProcessId j = 0; j < config_.n; ++j) {
      if (seen[j] < floor[j]) floor.set(j, seen[j]);
    }
  }
  std::erase_if(unstable_, [&](const DataMsg& msg) {
    return msg.vc[msg.sender] <= floor[msg.sender];
  });
}

void CbcastProcess::start_flush(int proposed_view) {
  if (!flushing_) flush_started_at_ = rt_.now();
  flushing_ = true;
  proposed_view_ = std::max(proposed_view, proposed_view_);
  flush_deadline_ = rt_.now() + static_cast<Tick>(config_.k_attempts) *
                                     rt_.clock().ticks_per_subrun();
  std::fill(flush_reported_.begin(), flush_reported_.end(), false);
  flush_pool_.clear();
  if (observer_ != nullptr) observer_->on_flush_started(self_, rt_.now());

  // Announce the flush so members that have not detected the failure join.
  wire::Writer w(32);
  w.u8(kFlushStart);
  w.i32(self_);
  w.i32(proposed_view_);
  wire::put_bools(w, suspected_);
  auto frame = std::move(w).take();
  std::vector<ProcessId> dsts;
  for (ProcessId q : live_members()) {
    if (q != self_) dsts.push_back(q);
  }
  if (observer_ != nullptr) {
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      observer_->on_sent(self_, stats::MsgClass::kCbcastFlush, frame.size(),
                         rt_.now());
    }
  }
  if (!dsts.empty()) endpoint_.data_rq(dsts, 1, std::move(frame));

  send_flush_report();
}

void CbcastProcess::send_flush_report() {
  const ProcessId coord = flush_coordinator();
  if (coord == kNoProcess) return;

  wire::Writer w(64);
  w.u8(kFlushReport);
  w.i32(self_);
  w.i32(proposed_view_);
  put_vc(w, vc_);
  w.u32(static_cast<std::uint32_t>(unstable_.size()));
  for (const DataMsg& msg : unstable_) {
    w.i32(msg.sender);
    w.i32(msg.view_id);
    put_vc(w, msg.vc);
    w.bytes(msg.payload);
  }
  auto frame = std::move(w).take();
  if (observer_ != nullptr) {
    observer_->on_sent(self_, stats::MsgClass::kCbcastFlush, frame.size(),
                       rt_.now());
  }
  if (coord == self_) {
    flush_reported_[self_] = true;
    for (const DataMsg& msg : unstable_) flush_pool_.push_back(msg);
    maybe_finish_flush();
  } else {
    endpoint_.data_rq({coord}, 1, std::move(frame));
  }
}

void CbcastProcess::maybe_finish_flush() {
  if (!flushing_ || flush_coordinator() != self_) return;
  for (ProcessId q : live_members()) {
    if (!flush_reported_[q]) return;
  }

  // Everyone reported: dedupe the unstable pool and install the new view.
  std::vector<bool> new_members = members_;
  for (ProcessId q = 0; q < config_.n; ++q) {
    if (suspected_[q]) new_members[q] = false;
  }
  std::vector<DataMsg> pool;
  for (const DataMsg& msg : flush_pool_) {
    const Mid mid{msg.sender, msg.vc[msg.sender]};
    const bool seen_already =
        std::any_of(pool.begin(), pool.end(), [&](const DataMsg& other) {
          return Mid{other.sender, other.vc[other.sender]} == mid;
        });
    if (!seen_already) pool.push_back(msg);
  }

  wire::Writer w(64);
  w.u8(kNewView);
  w.i32(self_);
  w.i32(proposed_view_);
  wire::put_bools(w, new_members);
  w.u32(static_cast<std::uint32_t>(pool.size()));
  for (const DataMsg& msg : pool) {
    w.i32(msg.sender);
    w.i32(msg.view_id);
    put_vc(w, msg.vc);
    w.bytes(msg.payload);
  }
  auto frame = std::move(w).take();
  std::vector<ProcessId> dsts;
  for (ProcessId q : live_members()) {
    if (q != self_) dsts.push_back(q);
  }
  if (observer_ != nullptr) {
    for (std::size_t i = 0; i < dsts.size(); ++i) {
      observer_->on_sent(self_, stats::MsgClass::kCbcastFlush, frame.size(),
                         rt_.now());
    }
  }
  if (!dsts.empty()) {
    endpoint_.data_rq(dsts, static_cast<int>(dsts.size()), std::move(frame));
  }
  install_view(proposed_view_, new_members, pool);
}

void CbcastProcess::install_view(int view_id,
                                 const std::vector<bool>& members,
                                 const std::vector<DataMsg>& retransmissions) {
  if (view_id <= view_id_) return;
  view_id_ = view_id;
  members_ = members;
  for (ProcessId q = 0; q < config_.n; ++q) {
    if (!members_[q]) suspected_[q] = false;  // no longer tracked
    last_heard_[q] = rt_.now();
  }

  // Absorb flushed messages we missed, then drop holdback entries that
  // reference undelivered messages of removed members: their causal past
  // died with the old view.
  for (const DataMsg& msg : retransmissions) {
    const Mid mid{msg.sender, msg.vc[msg.sender]};
    const bool known =
        std::find(log_.begin(), log_.end(), mid) != log_.end();
    if (!known && vc_.deliverable(msg.vc, msg.sender)) {
      deliver(msg);
      try_deliver();
    } else if (!known) {
      holdback_.push_back(msg);
    }
  }
  try_deliver();
  std::erase_if(holdback_, [&](const DataMsg& msg) {
    if (!members_[msg.sender]) return !vc_.deliverable(msg.vc, msg.sender);
    for (ProcessId q = 0; q < config_.n; ++q) {
      if (!members_[q] && msg.vc[q] > vc_[q]) return true;
    }
    return false;
  });

  if (flushing_) {
    flushing_ = false;
    blocked_ticks_ += rt_.now() - flush_started_at_;
  }
  if (observer_ != nullptr) {
    int count = 0;
    for (bool m : members_) count += m ? 1 : 0;
    observer_->on_view_installed(self_, view_id_, count, rt_.now());
  }
}

void CbcastProcess::on_payload(ProcessId src,
                               std::span<const std::uint8_t> bytes) {
  if (halted_) return;
  if (faults_.is_crashed(self_, rt_.now())) {
    halted_ = true;
    return;
  }
  note_heard(src);

  wire::Reader r(bytes);
  auto type = r.u8();
  if (!type) return;

  switch (type.value()) {
    case kData: {
      auto sender = r.i32();
      auto view = r.i32();
      if (!sender || !view) return;
      auto vc = get_vc(r);
      if (!vc) return;
      auto payload = r.bytes();
      if (!payload) return;
      DataMsg msg{sender.value(), view.value(), std::move(vc).value(),
                  std::move(payload).value()};
      if (!members_[msg.sender]) return;  // from a removed member
      seen_vc_[msg.sender].merge(msg.vc);
      const Mid mid{msg.sender, msg.vc[msg.sender]};
      if (std::find(log_.begin(), log_.end(), mid) != log_.end()) return;
      if (vc_.deliverable(msg.vc, msg.sender)) {
        deliver(msg);
        try_deliver();
      } else {
        const bool held = std::any_of(
            holdback_.begin(), holdback_.end(), [&](const DataMsg& h) {
              return Mid{h.sender, h.vc[h.sender]} == mid;
            });
        if (!held) holdback_.push_back(std::move(msg));
      }
      return;
    }
    case kHeartbeat: {
      auto sender = r.i32();
      auto view = r.i32();
      if (!sender || !view) return;
      auto vc = get_vc(r);
      if (!vc) return;
      seen_vc_[sender.value()].merge(vc.value());
      return;
    }
    case kFlushStart: {
      auto sender = r.i32();
      auto view = r.i32();
      if (!sender || !view) return;
      auto suspects = wire::get_bools(r);
      if (!suspects) return;
      if (view.value() <= view_id_) return;
      for (ProcessId q = 0; q < config_.n; ++q) {
        if (suspects.value()[q] && q != self_) suspected_[q] = true;
      }
      if (!flushing_ || view.value() > proposed_view_) {
        if (!flushing_) flush_started_at_ = rt_.now();
        flushing_ = true;
        proposed_view_ = view.value();
        flush_deadline_ =
            rt_.now() + static_cast<Tick>(config_.k_attempts) *
                             rt_.clock().ticks_per_subrun();
        std::fill(flush_reported_.begin(), flush_reported_.end(), false);
        flush_pool_.clear();
        send_flush_report();
      }
      return;
    }
    case kFlushReport: {
      auto sender = r.i32();
      auto view = r.i32();
      if (!sender || !view) return;
      auto vc = get_vc(r);
      if (!vc) return;
      auto count = r.u32();
      if (!count) return;
      if (!flushing_ || view.value() != proposed_view_ ||
          flush_coordinator() != self_) {
        return;
      }
      seen_vc_[sender.value()].merge(vc.value());
      flush_reported_[sender.value()] = true;
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto msender = r.i32();
        auto mview = r.i32();
        if (!msender || !mview) return;
        auto mvc = get_vc(r);
        if (!mvc) return;
        auto payload = r.bytes();
        if (!payload) return;
        flush_pool_.push_back(DataMsg{msender.value(), mview.value(),
                                      std::move(mvc).value(),
                                      std::move(payload).value()});
      }
      maybe_finish_flush();
      return;
    }
    case kNewView: {
      auto sender = r.i32();
      auto view = r.i32();
      if (!sender || !view) return;
      auto new_members = wire::get_bools(r);
      if (!new_members) return;
      auto count = r.u32();
      if (!count) return;
      std::vector<DataMsg> pool;
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto msender = r.i32();
        auto mview = r.i32();
        if (!msender || !mview) return;
        auto mvc = get_vc(r);
        if (!mvc) return;
        auto payload = r.bytes();
        if (!payload) return;
        pool.push_back(DataMsg{msender.value(), mview.value(),
                               std::move(mvc).value(),
                               std::move(payload).value()});
      }
      install_view(view.value(), new_members.value(), pool);
      return;
    }
    default:
      return;
  }
}

}  // namespace urcgc::baselines
