#include "core/process.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "runtime/clock.hpp"

namespace urcgc::core {

UrcgcProcess::UrcgcProcess(const Config& config, ProcessId self,
                           rt::Runtime& runtime, net::Endpoint& endpoint,
                           fault::FaultInjector& faults, Observer* observer,
                           obs::Registry* metrics)
    : config_(config),
      self_(self),
      rt_(runtime),
      endpoint_(endpoint),
      faults_(faults),
      observer_(observer),
      metrics_(metrics),
      mt_(config, self, observer),
      latest_(Decision::initial(config.founders())),
      cache_(DecisionCache::window_for(config)),
      pipeline_(config.max_subruns_in_flight, config.inbox_cap),
      recovery_(config.n) {
  URCGC_ASSERT(self >= 0 && self < config.n);
  URCGC_ASSERT(config.k_attempts >= 1);
  URCGC_ASSERT(config.r_recovery >= 1);
  URCGC_ASSERT(config.max_subruns_in_flight >= 1);
  URCGC_ASSERT_MSG(config.initial_members >= 0 &&
                       config.initial_members <= config.n,
                   "initial_members must lie in [0, n]");
  URCGC_ASSERT(config.join_attempts >= 1);
  join_attempts_left_ = config.join_attempts;
  if (self_ >= config_.founders()) join_phase_ = JoinPhase::kJoining;
  URCGC_ASSERT_MSG(config.structure == GroupStructure::kPeer ||
                       (config.server_count >= 1 &&
                        config.server_count <= config.n),
                   "non-peer structures need 1 <= server_count <= n");
  if (metrics_ != nullptr) {
    m_.generated = metrics_->counter("urcgc.generated");
    m_.flow_blocked_rounds = metrics_->counter("urcgc.flow_blocked_rounds");
    m_.recoveries_issued = metrics_->counter("urcgc.recoveries_issued");
    m_.recoveries_served = metrics_->counter("urcgc.recoveries_served");
    m_.decisions_made = metrics_->counter("urcgc.decisions_made");
    m_.decisions_applied = metrics_->counter("urcgc.decisions_applied");
    m_.orphans_discarded = metrics_->counter("urcgc.orphans_discarded");
    m_.cleanings = metrics_->counter("urcgc.cleanings");
    m_.requests_dropped = metrics_->counter("urcgc.requests_dropped");
    m_.halts = metrics_->counter("urcgc.halts");
    m_.recovery_batches = metrics_->counter("core.recovery_batches");
    m_.recovery_msgs = metrics_->counter("core.recovery_msgs");
    m_.recovery_continuations =
        metrics_->counter("core.recovery_continuations");
    m_.recovery_budget_exhausted =
        metrics_->counter("core.recovery_budget_exhausted");
    m_.recovery_cache_hits = metrics_->counter("core.recovery_cache_hits");
    m_.recovery_latency_rtd = metrics_->histogram(
        "core.recovery_latency_rtd", {.lo = 0.0, .hi = 40.0, .buckets = 40});
    m_.bp_waiting_rejected =
        metrics_->counter("core.backpressure_waiting_rejected");
    m_.bp_paused_rounds =
        metrics_->counter("core.backpressure_paused_rounds");
    m_.bp_inbox_duplicates =
        metrics_->counter("core.backpressure_inbox_duplicates");
    m_.bp_inbox_overflow =
        metrics_->counter("core.backpressure_inbox_overflow");
    m_.pipeline_eager_deliveries =
        metrics_->counter("core.pipeline_eager_deliveries");
    m_.pipeline_stall_rounds =
        metrics_->counter("core.pipeline_stall_rounds");
    m_.pipeline_subruns_in_flight =
        metrics_->counter("core.pipeline_subruns_in_flight");
    m_.decode_rejected = metrics_->counter("net.decode_rejected");
    m_.join_requested = metrics_->counter("core.join_requested");
    m_.join_decided = metrics_->counter("core.join_decided");
    m_.join_catchup_batches = metrics_->counter("core.join_catchup_batches");
    m_.join_catchup_msgs = metrics_->counter("core.join_catchup_msgs");
    m_.join_catchup_latency_rtd = metrics_->histogram(
        "core.join_catchup_latency_rtd",
        {.lo = 0.0, .hi = 40.0, .buckets = 40});
    m_.control_bytes_full = metrics_->counter("core.control_bytes_full");
    m_.control_bytes_delta = metrics_->counter("core.control_bytes_delta");
    m_.delta_fallbacks = metrics_->counter("core.delta_fallbacks");
    m_.delta_anchor_miss = metrics_->counter("core.delta_anchor_miss");
  }
}

void UrcgcProcess::start() {
  URCGC_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  endpoint_.set_upcall(
      [this](ProcessId src, wire::FrameRef frame) { on_datagram(src, frame); });
  rt_.on_round(self_, [this](RoundId round) { on_round(round); });
}

bool UrcgcProcess::data_rq(std::vector<std::uint8_t> payload,
                           std::vector<Mid> deps) {
  if (halted_) return false;
  if (!config_.is_server(self_)) {
    switch (config_.structure) {
      case GroupStructure::kDiffusion:
        // Diffusion clients are pure receivers.
        return false;
      case GroupStructure::kClientServer: {
        // Hand the payload to the home server, which generates it within
        // its own sequence (paper Section 3: "through a proper management
        // of the reply messages").
        const auto home =
            static_cast<ProcessId>(self_ % config_.server_count);
        ClientRq rq{self_, std::move(deps), std::move(payload)};
        send_pdu(home, encode_pdu(rq), stats::MsgClass::kAppData);
        return true;
      }
      case GroupStructure::kPeer:
        break;  // unreachable: every peer is a server
    }
  }
  user_queue_.emplace_back(std::move(payload), std::move(deps));
  return true;
}

void UrcgcProcess::set_deliver_ind(MtEntity::ProcessedFn fn) {
  mt_.set_on_processed(std::move(fn));
}

Mid UrcgcProcess::last_processed_mid_of(ProcessId origin) const {
  const Seq prefix = mt_.prefix(origin);
  if (prefix == kNoSeq) return Mid{};
  return Mid{origin, prefix};
}

bool UrcgcProcess::flow_blocked() const {
  return config_.history_threshold > 0 &&
         mt_.history_size() >= config_.history_threshold;
}

bool UrcgcProcess::backpressured() const {
  return config_.waiting_cap > 0 &&
         mt_.waiting_size() >= config_.waiting_cap;
}

ProcessId UrcgcProcess::coordinator_of(SubrunId s) const {
  // Rotation spans the live view, not the provisioned capacity: every
  // member with the same applied decision derives the same coordinator,
  // and a view-lagged member's divergent pick is absorbed by the same
  // K-miss machinery that covers cut-lag divergence.
  const int n = latest_.n();
  for (int offset = 0; offset < n; ++offset) {
    const auto candidate =
        static_cast<ProcessId>((s + offset) % static_cast<SubrunId>(n));
    if (latest_.alive[candidate]) return candidate;
  }
  return kNoProcess;  // everyone believed dead: the group is gone
}

void UrcgcProcess::on_round(RoundId round) {
  if (halted_) return;
  if (faults_.is_crashed(self_, rt_.now())) {
    halt(HaltReason::kCrashFault);
    return;
  }
  const SubrunId subrun = rt::RoundClock::subrun_of_round(round);
  if (rt::RoundClock::is_request_round(round)) {
    request_round(subrun);
  } else {
    decision_round(subrun);
  }
}

void UrcgcProcess::request_round(SubrunId subrun) {
  if (join_phase_ == JoinPhase::kJoining) {
    // Not in the view yet: no REQUEST to send, no quorum to join — just
    // keep soliciting admission against the budget.
    join_round(subrun);
    return;
  }

  // Close the books on the oldest in-flight subrun: did its decision reach
  // us? "A process that fails to receive from K consecutive coordinators
  // autonomously leaves the group" — but a subrun without a decision is
  // only evidence of *our* receive failure when nothing else reached us
  // either. When app messages or requests still flow, the missing decision
  // is the coordinator's crash, which the algorithm absorbs by resuming the
  // decision activity at the next subrun; counting those subruns would make
  // the whole group desert after f >= K consecutive coordinator crashes.
  // Misses are counted against the subrun actually being awaited — with a
  // pipeline of depth k, that is subrun-k (s-1 at the paper's k=1): only a
  // decision at least as fresh as it proves that subrun's coordinator
  // reached us; the decisions of the younger in-flight subruns are not due
  // yet. A *delayed* decision from an earlier subrun arriving meanwhile
  // must not zero the accumulated count — it says nothing about the
  // coordinator we were waiting for — though, as any received datagram, it
  // does keep the silence guard below from charging the subrun as a
  // receive failure.
  const SubrunId awaited = pipeline_.awaited(subrun);
  if (awaited >= 0) {
    if (latest_.decided_at >= awaited) {
      missed_decisions_ = 0;
    } else if (last_datagram_at_ < rt_.clock().subrun_start(awaited)) {
      ++missed_decisions_;
      if (missed_decisions_ >= config_.k_attempts) {
        halt(HaltReason::kNoCoordinator);
        return;
      }
    }
  }

  // Open the collection window for the subrun we are entering; windows
  // that fell out of the k-deep span are evicted — stale requests from a
  // closed subrun must not leak into a younger decision.
  pipeline_.open_window(
      subrun, coordinator_of(subrun) == self_
                  ? static_cast<std::size_t>(latest_.n())
                  : std::size_t{0});

  issue_recoveries(subrun);
  if (halted_) return;  // recovery exhaustion may have made us leave

  if (join_phase_ == JoinPhase::kCatchUp) {
    catchup_round(subrun);
    if (halted_) return;  // the join budget may have run out
  }

  const auto in_flight = static_cast<std::uint64_t>(
      pipeline_.decisions_in_flight(subrun, latest_.decided_at));
  if (in_flight > 0) {
    counters_.pipeline_subruns_in_flight += in_flight;
    bump(m_.pipeline_subruns_in_flight, in_flight);
  }

  generate_burst(subrun);
  send_request(subrun);
}

void UrcgcProcess::generate_burst(SubrunId subrun) {
  // A joiner generates nothing until it is a caught-up member: its first
  // own message must causally follow the adopted baseline, and the group
  // must never see traffic from an origin it has not admitted.
  if (join_phase_ != JoinPhase::kMember) return;
  if (pipeline_.stalled(subrun, latest_.decided_at) &&
      !user_queue_.empty()) {
    // The decision lag reached the pipeline depth with traffic queued:
    // the data plane throttles back to the paced rate until the control
    // plane catches up.
    ++counters_.pipeline_stall_rounds;
    bump(m_.pipeline_stall_rounds);
  }
  const int budget =
      pipeline_.generation_budget(subrun, latest_.decided_at);
  for (int i = 0; i < budget; ++i) {
    if (!generate_one(rt_.now())) break;
  }
}

bool UrcgcProcess::generate_one(Tick now) {
  if (user_queue_.empty()) return false;
  if (flow_blocked()) {
    ++counters_.flow_blocked_rounds;
    bump(m_.flow_blocked_rounds);
    if (observer_ != nullptr) observer_->on_flow_blocked(self_, now);
    return false;
  }
  if (backpressured()) {
    // Admission pause: our waiting list is at its hard cap, so the causal
    // front is stalled on recovery; new traffic would pile more unmet
    // dependencies onto every peer. Pause like flow control does.
    ++counters_.backpressure_paused_rounds;
    bump(m_.bp_paused_rounds);
    if (observer_ != nullptr) observer_->on_flow_blocked(self_, now);
    return false;
  }
  auto [payload, user_deps] = std::move(user_queue_.front());
  user_queue_.pop_front();

  AppMessage msg;
  const Seq seq = next_seq_++;
  msg.mid = Mid{self_, seq};
  msg.deps = build_deps(user_deps, seq);
  msg.generated_at = now;
  // Encode first: the stored copy's payload is then the frame's tail, so
  // the sender keeps one buffer for the broadcast and its history entry.
  wire::SharedBuffer frame = encode_pdu(msg, payload);
  msg.payload = wire::Slice(frame, frame.view().last(payload.size()));

  ++counters_.generated;
  bump(m_.generated);
  if (observer_ != nullptr) observer_->on_generated(self_, msg, now);

  broadcast_pdu(std::move(frame), stats::MsgClass::kAppData);
  // The sender processes its own message at once.
  submit_tracked(std::move(msg), now);
  return true;
}

MtEntity::SubmitResult UrcgcProcess::submit_tracked(AppMessage msg,
                                                    Tick now) {
  const std::size_t before = mt_.processing_log().size();
  const auto result = mt_.submit(std::move(msg), now);
  const std::size_t delta = mt_.processing_log().size() - before;
  // Eager deliveries: everything processed while the local decision lags
  // the current subrun beyond the paced lag of one — the data plane
  // running ahead of a control plane that has not yet caught up. At k=1
  // this only happens when decisions are genuinely delayed (faults); with
  // k>1 it is the pipeline's normal operating mode.
  if (delta > 0 &&
      latest_.decided_at < rt_.clock().subrun_of(now) - 1) {
    counters_.pipeline_eager_deliveries += delta;
    bump(m_.pipeline_eager_deliveries, delta);
  }
  return result;
}

causal::DepList UrcgcProcess::build_deps(const std::vector<Mid>& user_deps,
                                         Seq my_seq) const {
  causal::DepList deps;
  // Drop dependencies the protocol cannot honour: unknown origins and
  // self-references to the present or future.
  for (const Mid& mid : user_deps) {
    if (!mid.valid() || mid.origin < 0 || mid.origin >= config_.n ||
        (mid.origin == self_ && mid.seq >= my_seq)) {
      continue;
    }
    deps.push_back(mid);
  }

  switch (config_.causality) {
    case CausalityMode::kGeneral:
      break;  // exactly what the user declared (Definition 3.1)
    case CausalityMode::kIntermediate:
      // One sequence per process: implicit dependency on own predecessor.
      if (my_seq > 1) deps.push_back(Mid{self_, my_seq - 1});
      break;
    case CausalityMode::kTemporal:
      // BSS91-style temporal causality: depend on the latest processed
      // message of every originator.
      for (ProcessId q = 0; q < config_.n; ++q) {
        const Seq prefix = q == self_ ? my_seq - 1 : mt_.prefix(q);
        if (prefix != kNoSeq) deps.push_back(Mid{q, prefix});
      }
      break;
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

void UrcgcProcess::send_request(SubrunId subrun) {
  const ProcessId coordinator = coordinator_of(subrun);
  if (coordinator == kNoProcess) return;
  // Report vectors travel at the live view's width (they widen with it):
  // origins past the view are unknown to the group's agreement and their
  // parked traffic resurfaces once a decision admits them.
  const int width = latest_.n();
  if (coordinator == self_) {
    // No network hop to oneself. The embed is latest_ itself, which can
    // never become the base, so it goes in as a stub.
    Request rq;
    rq.subrun = subrun;
    rq.from = self_;
    mt_.last_processed_into(rq.last_processed, width);
    mt_.oldest_waiting_into(rq.oldest_waiting, width);
    rq.prev_decision.decided_at = latest_.decided_at;
    handle_request(std::move(rq));
    return;
  }
  std::vector<std::uint8_t> frame;
  const bool delta =
      request_delta_eligible(latest_.decided_at, subrun, width, config_);
  if (delta) {
    // O(changed): only origins the entity tracks as off the anchor's
    // max_processed, or with parked messages, are visited.
    mt_.report_overrides(latest_.max_processed, tx_processed_, tx_waiting_);
    wire::Writer w(64);
    w.u8(static_cast<std::uint8_t>(PduType::kRequestDelta));
    encode_request_delta_body(w, subrun, self_, latest_.decided_at,
                              latest_digest_, tx_processed_, tx_waiting_);
    frame = std::move(w).take();
  } else {
    Request rq;
    rq.subrun = subrun;
    rq.from = self_;
    mt_.last_processed_into(rq.last_processed, width);
    mt_.oldest_waiting_into(rq.oldest_waiting, width);
    // The embed is latest_: lend it to the request for the encode (a
    // swap, not a copy).
    std::swap(rq.prev_decision, latest_);
    frame = encode_pdu(rq);
    std::swap(rq.prev_decision, latest_);
  }
  account_control(delta, frame.size(), 1);
  send_pdu(coordinator, std::move(frame), stats::MsgClass::kRequest);
}

void UrcgcProcess::decision_round(SubrunId subrun) {
  // "At each round ... [a process] can broadcast a new message": the
  // service's per-round rate applies to decision rounds too, so they
  // carry user traffic as well.
  generate_burst(subrun);
  if (coordinator_of(subrun) == self_) {
    act_as_coordinator(subrun);
  }
}

void UrcgcProcess::act_as_coordinator(SubrunId subrun) {
  // Consume and close this subrun's collection window; REQUESTs arriving
  // after this point are late and dropped with accounting. The younger
  // in-flight windows (k>1) stay open for their own decision rounds.
  std::vector<Request> inbox = pipeline_.take_window(subrun);

  CoordinatorInputs inputs;
  inputs.subrun = subrun;
  inputs.coordinator = self_;
  inputs.k_attempts = config_.k_attempts;
  inputs.track_boundaries = config_.track_stability_boundaries;
  inputs.quorum_cuts = config_.quorum_cuts;
  inputs.mutation = config_.mutation;

  // Freshest decision circulating: our own copy or one embedded in a
  // request (resilience t=(n-1)/2 guarantees at least one fresh copy).
  std::vector<const Decision*> candidates;
  candidates.reserve(inbox.size() + 1);
  candidates.push_back(&latest_);
  for (const Request& rq : inbox) {
    candidates.push_back(&rq.prev_decision);
  }
  inputs.base = freshest(candidates);
  inputs.requests = std::move(inbox);

  Decision d = compute_decision(inputs);

  // Admit parked joiners at this decided subrun boundary: the decision's
  // member vectors widen, so every survivor that applies it agrees on the
  // first subrun that includes the joiner. A widened decision is never
  // delta-eligible (its width differs from every cached anchor), so the
  // joiner — who holds no anchors — can always decode its own admission.
  std::erase_if(parked_joins_,
                [&](ProcessId p) { return p < d.n(); });
  const int admitted = admit_joins(d, parked_joins_, config_.n);
  if (admitted > 0) {
    counters_.join_decided += static_cast<std::uint64_t>(admitted);
    bump(m_.join_decided, static_cast<std::uint64_t>(admitted));
    std::erase_if(parked_joins_,
                  [&](ProcessId p) { return p < d.n(); });
  }

  ++counters_.decisions_made;
  bump(m_.decisions_made);
  if (observer_ != nullptr) observer_->on_decision_made(self_, d, rt_.now());

  // A delta frame is only decodable by receivers that hold the anchor,
  // and the requests just merged prove exactly who does: an embedded
  // prev_decision as fresh as the base names a member that demonstrably
  // applied it. Any alive member that stayed silent this subrun — or
  // embedded an older decision — may have lost the base broadcast
  // (omission, a healing partition), and because delta DECISIONs chain on
  // their anchor it would stay unable to decode every following delta
  // until the periodic snapshot; if the run quiesces first the member is
  // left permanently behind, which the full encoding's cumulative frames
  // can never do. Spend the full frame now so one receipt resyncs it.
  // (decided_at identifies the decision: the rotation elects one
  // coordinator per subrun, and a healed zombie's same-numbered twin is
  // both rejected at receivers and excluded here by d.alive.)
  bool receivers_hold_anchor = true;
  if (config_.control_encoding == ControlEncoding::kDelta) {
    if (snapshot_needed_) {
      // A member estranged from our anchor chain is still transmitting
      // (a cut zombie, or a healed fork): it must be able to decode this
      // decision — for a zombie, alive[itself] = false is its cue to
      // commit suicide — and it holds none of our recent anchors. One
      // snapshot per sighting; re-armed while the traffic continues.
      receivers_hold_anchor = false;
      snapshot_needed_ = false;
    }
    std::vector<bool> acked(d.alive.size(), false);
    for (const Request& rq : inputs.requests) {
      if (rq.from >= 0 && rq.from < d.n() &&
          rq.prev_decision.decided_at >= inputs.base.decided_at) {
        acked[static_cast<std::size_t>(rq.from)] = true;
      }
    }
    for (ProcessId q = 0; q < d.n(); ++q) {
      if (q != self_ && d.alive[static_cast<std::size_t>(q)] &&
          !acked[static_cast<std::size_t>(q)]) {
        receivers_hold_anchor = false;
        break;
      }
    }
  }
  bool was_delta = false;
  std::vector<std::uint8_t> frame = encode_decision_pdu(
      d, inputs.base, config_, receivers_hold_anchor, &was_delta, &cache_);
  account_control(was_delta, frame.size(), d.n() - 1);
  broadcast_pdu(std::move(frame), stats::MsgClass::kDecision);
  // Anchor window: received decisions are cached when they decode; our
  // own computed decision joins it here.
  std::uint64_t digest = 0;
  if (config_.control_encoding == ControlEncoding::kDelta) {
    digest = cache_.insert(d);
  }
  apply_decision(d, digest, nullptr);
}

void UrcgcProcess::apply_decision(const Decision& d, std::uint64_t digest,
                                  const DecisionPatch* patch) {
  if (d.decided_at <= latest_.decided_at) return;  // stale or duplicate
  // Views only ever widen along the decision chain; a fresher-numbered but
  // narrower decision is a pre-join-era fork (a healed zombie deciding on
  // its stale view) and adopting it would un-admit a member.
  if (d.n() < latest_.n()) return;
  const int old_view = latest_.n();
  // A delta decoded against latest_ itself (same decided_at and digest,
  // the anchor's identity on the wire) turns latest_ into `d` by the
  // entries it overrode; anything else is a full copy.
  const bool in_place = patch != nullptr && patch->delta &&
                        patch->anchor_at == latest_.decided_at &&
                        patch->anchor_digest == latest_digest_;
  const bool anchor_cleaned = latest_cleaned_;
  if (in_place) {
    apply_patch(latest_, d, *patch);
    for (const std::uint16_t j : patch->of(DecisionPatch::kMaxProcessed)) {
      mt_.mark_report_dirty(j);
    }
  } else {
    latest_ = d;
    mt_.mark_report_dirty_all();
  }
  latest_digest_ = digest;
  latest_cleaned_ = false;
  if (!in_place || !patch->of(DecisionPatch::kAlive).empty()) {
    dead_.clear();
    for (ProcessId q = 0; q < latest_.n(); ++q) {
      if (!latest_.alive[q]) dead_.push_back(q);
    }
  }
  if (d.n() > old_view) {
    // The view widened: recovery serve-cache entries encoded under the old
    // view must not revalidate (satellite: a post-join joiner must never
    // be served a pre-join cached range).
    mt_.note_view_change();
  }
  ++counters_.decisions_applied;
  bump(m_.decisions_applied);

  if (self_ < d.n()) {
    if (!d.alive[self_]) {
      // The group declared us crashed; an alive process that notices it is
      // supposed dead commits suicide (paper Section 4). An admitted-then-
      // cut joiner takes the same exit: rejoin is a fresh identity.
      halt(HaltReason::kSuicide);
      return;
    }
    if (join_phase_ == JoinPhase::kJoining) begin_catchup();
  }

  // A catching-up joiner skips group cleaning until it adopts a snapshot
  // baseline: the published stability point comes from a window the joiner
  // never contributed to, so it can sit far beyond the joiner's (empty)
  // processed prefix. The baseline it adopts supersedes these cleanings.
  if (d.full_group && (join_phase_ == JoinPhase::kMember ||
                       baseline_adopted_)) {
    // Entries the patch left alone equal cleaning points already applied
    // to the anchor, so only the moved ones can purge anything. A
    // deliberate mutation clamps cleaning to the moving prefix and must
    // revisit every origin.
    const bool moved_only = in_place && anchor_cleaned &&
                            config_.mutation == ProtocolMutation::kNone;
    const std::size_t purged =
        moved_only
            ? mt_.clean(d.clean_upto, patch->of(DecisionPatch::kCleanUpto))
            : mt_.clean(d.clean_upto);
    latest_cleaned_ = true;
    if (purged > 0) {
      ++counters_.cleanings;
      bump(m_.cleanings);
      if (observer_ != nullptr) {
        observer_->on_history_cleaned(self_, purged, rt_.now());
      }
    }
  }

  // Total-order support: surface newly learned stability boundaries. The
  // window rides along every decision, so even a member that missed the
  // stability decision's own datagram catches up here.
  if (stability_ind_ && d.stability_epoch > notified_epoch_) {
    notified_epoch_ = d.stability_epoch;
    stability_ind_(d);
  }

  // Orphan cut: a crashed originator whose oldest waiting message sits more
  // than one past the best processed point means the gap messages died with
  // their holders; everything depending on them must be destroyed.
  for (const ProcessId q : dead_) {
    if (d.min_waiting[q] == kNoSeq) continue;
    if (d.min_waiting[q] > d.max_processed[q] + 1) {
      const auto discarded =
          mt_.discard_orphans(q, d.max_processed[q] + 1, rt_.now());
      counters_.orphans_discarded += discarded.size();
      bump(m_.orphans_discarded, discarded.size());
    }
  }

  // Parked JOIN solicitations the applied view already covers are settled
  // (admitted — or, for ids below the view, moot).
  std::erase_if(parked_joins_,
                [&](ProcessId p) { return p < latest_.n(); });
}

const std::vector<ProcessId>& UrcgcProcess::recovery_candidates(
    ProcessId origin, Seq from_seq) {
  const int view = latest_.n();
  std::vector<ProcessId>& ring = candidates_;
  ring.clear();
  const auto push = [&](ProcessId p) {
    if (p == kNoProcess || p == self_ || p < 0 || p >= view ||
        !latest_.alive[p]) {
      return;
    }
    for (ProcessId q : ring) {
      if (q == p) return;
    }
    ring.push_back(p);
  };
  // The advertised most-updated holder is the only peer the decision
  // *proves* covers the gap; the originator is the next-best bet. The rest
  // of the live membership follows: any member that processed the span
  // still holds it (stability cleaning cannot pass our own prefix), and a
  // member that has not replies with an empty batch, spending one budget.
  // An origin past our view (traffic from a joiner we have not learned of)
  // has no advertisement to consult; any live member may cover it.
  if (origin >= 0 && origin < view &&
      latest_.max_processed[origin] >= from_seq) {
    push(latest_.most_updated[origin]);
  }
  push(origin);
  for (ProcessId q = 0; q < view; ++q) push(q);
  return ring;
}

void UrcgcProcess::issue_recoveries(SubrunId subrun) {
  // Until the snapshot baseline is adopted, a catching-up joiner must not
  // chase gaps: everything below the group's clean floor is purged from
  // every history, so the attempts could only burn the R budget. The
  // baseline closes that span; recovery then drains the live tail.
  if (join_phase_ == JoinPhase::kCatchUp && !baseline_adopted_) return;

  auto ranges = mt_.missing_ranges();

  // The waiting list only reveals gaps that block received messages. The
  // circulating decision reveals the rest: if the most updated process has
  // processed further into origin q's sequence than our prefix, we are
  // missing messages even though nothing waits on them locally (e.g. the
  // final messages of a sender whose later traffic never reached us). Only
  // origins the entity tracks as off max_processed can be.
  mt_.for_each_report_dirty(latest_.n(), [&](ProcessId q) {
    const Seq advertised = latest_.max_processed[q];
    const Seq prefix = mt_.prefix(q);
    if (advertised == kNoSeq || advertised <= prefix) return;
    for (auto& range : ranges) {
      if (range.origin == q) {
        range.from_seq = std::min(range.from_seq, prefix + 1);
        range.to_seq = std::max(range.to_seq, advertised);
        return;
      }
    }
    ranges.push_back({q, prefix + 1, advertised});
  });

  // Close the books on open origins that are no longer missing: record
  // the gap-open -> gap-closed latency and reset every budget. Every
  // other origin's state is already the default.
  const Tick per_rtd = rt_.clock().ticks_per_rtd();
  std::erase_if(recovering_, [&](ProcessId q) {
    for (const auto& range : ranges) {
      if (range.origin == q) return false;
    }
    RecoveryState& state = recovery_[q];
    if (metrics_ != nullptr) {
      metrics_->observe(self_, m_.recovery_latency_rtd,
                        static_cast<double>(rt_.now() - state.gap_since) /
                            static_cast<double>(per_rtd));
    }
    state = RecoveryState{};
    return true;
  });

  for (const auto& range : ranges) {
    const ProcessId origin = range.origin;
    RecoveryState& state = recovery_[origin];
    if (state.gap_since == kNoTick) {
      state.gap_since = rt_.now();
      recovering_.push_back(origin);
    }

    // Progress since the last attempt resets the counters: R counts
    // *unsuccessful* attempts, and a target that delivered keeps its
    // budget and its backoff at the base.
    if (mt_.prefix(origin) > state.baseline) {
      state.attempts = 0;
      state.target_attempts = 0;
      state.next_attempt = subrun;
    }
    state.baseline = mt_.prefix(origin);

    // Exponential backoff: wait out the window a fruitless attempt opened
    // (skipped subruns are not charged against R).
    if (subrun < state.next_attempt) continue;

    ++state.attempts;
    if (state.attempts > config_.r_recovery) {
      // R fruitless attempts: leave the group autonomously.
      halt(HaltReason::kRecoveryExhausted);
      return;
    }
    if (config_.recovery_backoff_base > 0) {
      const int shift = std::min(state.attempts - 1, 16);
      const auto wait = std::min<std::int64_t>(
          static_cast<std::int64_t>(config_.recovery_backoff_base) << shift,
          config_.recovery_backoff_max);
      state.next_attempt = subrun + std::max<std::int64_t>(wait, 1);
    }

    const std::vector<ProcessId>& ring =
        recovery_candidates(origin, range.from_seq);
    if (ring.empty()) continue;  // wait for the orphan cut

    // Per-target retry budget: after budget fruitless attempts against one
    // peer, rotate to the next candidate — a crashed or partitioned target
    // must not absorb unbounded attempts.
    if (config_.recovery_budget_per_peer > 0 &&
        state.target_attempts >= config_.recovery_budget_per_peer) {
      ++state.rotation;
      state.target_attempts = 0;
      ++counters_.recovery_budget_exhausted;
      bump(m_.recovery_budget_exhausted);
    }
    const ProcessId target =
        ring[static_cast<std::size_t>(state.rotation) % ring.size()];
    ++state.target_attempts;

    RecoverRq rq{self_, origin, range.from_seq, range.to_seq};
    ++counters_.recoveries_issued;
    bump(m_.recoveries_issued);
    if (observer_ != nullptr) {
      observer_->on_recovery_attempt(self_, target, origin, rt_.now());
    }
    send_pdu(target, encode_pdu(rq), stats::MsgClass::kRecoverRq);
  }
}

void UrcgcProcess::handle_request(Request rq) {
  if (rq.from < 0 || rq.from >= config_.n) return;  // beyond capacity
  // An embed no fresher than latest_ arrives as a stub (decided_at only):
  // the decoder and send_request drop its body, so a full inbox window
  // does not hold n copies of one decision.
  if (rq.from >= latest_.n()) {
    // A sender past our view: a joiner admitted by a decision we have not
    // applied yet. We cannot judge its aliveness, but its embedded
    // prev_decision is exactly the catch-up we need — park it; the
    // coordinator path folds the embed into its base and compute_decision
    // re-judges the sender under the widened view.
    const ProcessId from = rq.from;
    const SubrunId rq_subrun = rq.subrun;
    if (pipeline_.admit(std::move(rq)) != SubrunPipeline::Admit::kAccepted) {
      ++counters_.requests_dropped;
      bump(m_.requests_dropped);
      if (observer_ != nullptr) {
        observer_->on_request_dropped(self_, from, rq_subrun, rt_.now());
      }
    }
    return;
  }
  if (!latest_.alive[rq.from]) {
    // A member the group cut is no longer part of any quorum. Merging a
    // zombie's request (a partitioned member keeps transmitting until the
    // heal lets it learn of its own death) would advance max_processed for
    // dead origins past the decided cut, re-legitimizing orphan messages
    // that only other zombies can serve — a permanent history split.
    ++counters_.requests_dropped;
    bump(m_.requests_dropped);
    // The zombie needs a decision it can decode to learn of its death and
    // suicide; make sure the next one we coordinate is a full snapshot.
    snapshot_needed_ = true;
    if (observer_ != nullptr) {
      observer_->on_request_dropped(self_, rq.from, rq.subrun, rt_.now());
    }
    return;
  }
  const ProcessId from = rq.from;
  const SubrunId rq_subrun = rq.subrun;
  switch (pipeline_.admit(std::move(rq))) {
    case SubrunPipeline::Admit::kAccepted:
      return;
    case SubrunPipeline::Admit::kClosed:
      // Late or early: no window is open for that subrun here (consumed,
      // evicted, or never opened). Each drop silently shrinks a decision
      // quorum, so it is accounted and surfaced rather than vanishing.
      ++counters_.requests_dropped;
      bump(m_.requests_dropped);
      if (observer_ != nullptr) {
        observer_->on_request_dropped(self_, from, rq_subrun, rt_.now());
      }
      return;
    case SubrunPipeline::Admit::kDuplicate:
      // Duplicate REQUEST (same sender, same subrun): merging it would
      // change nothing, and accumulating it would let a retransmitting
      // peer grow the inbox without bound. Drop and count.
      ++counters_.inbox_duplicates;
      bump(m_.bp_inbox_duplicates);
      return;
    case SubrunPipeline::Admit::kOverflow:
      ++counters_.inbox_overflow;
      bump(m_.bp_inbox_overflow);
      if (observer_ != nullptr) {
        observer_->on_request_dropped(self_, from, rq_subrun, rt_.now());
      }
      return;
  }
}

void UrcgcProcess::handle_recover_rq(const RecoverRq& rq) {
  // Serve cache: during an omission storm several peers miss the *same*
  // broadcast and ask for the same range back-to-back. One integer compare
  // against History::version() revalidates the last encoded batch, so the
  // frame is serialized once and shared across requesters by refcount.
  if (serve_cache_.origin == rq.origin &&
      serve_cache_.from_seq == rq.from_seq &&
      serve_cache_.to_seq == rq.to_seq &&
      serve_cache_.version == mt_.history().version()) {
    if (serve_cache_.empty) return;  // nothing to offer (still)
    ++counters_.recoveries_served;
    bump(m_.recoveries_served);
    ++counters_.recovery_cache_hits;
    bump(m_.recovery_cache_hits);
    send_pdu(rq.from, serve_cache_.frame, stats::MsgClass::kRecoverRsp);
    return;
  }

  std::vector<std::uint8_t> rsp = mt_.serve_recovery(rq);
  serve_cache_.origin = rq.origin;
  serve_cache_.from_seq = rq.from_seq;
  serve_cache_.to_seq = rq.to_seq;
  serve_cache_.version = mt_.history().version();
  serve_cache_.empty = rsp.empty();
  if (rsp.empty()) {
    serve_cache_.frame = wire::SharedBuffer{};
    return;  // nothing to offer
  }
  serve_cache_.frame = wire::SharedBuffer::take(std::move(rsp));
  ++counters_.recoveries_served;
  bump(m_.recoveries_served);
  send_pdu(rq.from, serve_cache_.frame, stats::MsgClass::kRecoverRsp);
}

void UrcgcProcess::handle_recover_rsp(RecoverRsp& rsp) {
  Seq max_seq = kNoSeq;
  std::uint64_t recovered = 0;
  for (AppMessage& msg : rsp.messages) {
    max_seq = std::max(max_seq, msg.mid.seq);
    if (drop_if_zombie(msg)) continue;
    const auto result = submit_tracked(std::move(msg), rt_.now());
    if (result == MtEntity::SubmitResult::kProcessed ||
        result == MtEntity::SubmitResult::kParked) {
      ++recovered;
    } else if (result == MtEntity::SubmitResult::kRejected) {
      ++counters_.waiting_rejected;
      bump(m_.bp_waiting_rejected);
    }
  }
  if (!rsp.messages.empty()) {
    ++counters_.recovery_batches;
    bump(m_.recovery_batches);
    counters_.recovery_msgs += recovered;
    bump(m_.recovery_msgs, recovered);
    if (join_phase_ == JoinPhase::kCatchUp) {
      ++counters_.join_catchup_batches;
      bump(m_.join_catchup_batches);
      counters_.join_catchup_msgs += recovered;
      bump(m_.join_catchup_msgs, recovered);
    }
  }

  // A truncated batch means "more available", not "gap satisfied": pull
  // the continuation from the same server right away instead of burning a
  // whole subrun (and another attempt against R) to re-ask from scratch.
  // from_seq strictly increases each hop, so the chain terminates.
  if (rsp.truncated && max_seq != kNoSeq && rsp.to_seq != kNoSeq &&
      max_seq < rsp.to_seq && !halted_ &&
      !from_zombie(Mid{rsp.origin, max_seq + 1})) {
    RecoverRq next{self_, rsp.origin, max_seq + 1, rsp.to_seq};
    ++counters_.recoveries_issued;
    bump(m_.recoveries_issued);
    ++counters_.recovery_continuations;
    bump(m_.recovery_continuations);
    if (observer_ != nullptr) {
      observer_->on_recovery_attempt(self_, rsp.from, rsp.origin, rt_.now());
    }
    send_pdu(rsp.from, encode_pdu(next), stats::MsgClass::kRecoverRq);
  }

  // Unpin what was not submitted (zombie messages) along with the
  // moved-from rest.
  rsp.messages.clear();

  // A drained batch may have been the last missing span of a catch-up.
  maybe_finish_catchup();
}

void UrcgcProcess::handle_join_rq(const JoinRq& rq) {
  if (rq.from < 0 || rq.from >= config_.n) return;  // beyond capacity
  if (rq.from == self_) return;
  if (rq.from < latest_.n()) {
    // The id is already inside our view: either the joiner missed its own
    // admission decision (an omission — make sure the next decision we
    // coordinate is a full snapshot it can decode), or the id was cut and
    // this is a rejoin attempt, which requires a fresh identity.
    if (latest_.alive[rq.from]) snapshot_needed_ = true;
    return;
  }
  for (ProcessId p : parked_joins_) {
    if (p == rq.from) return;  // already parked
  }
  parked_joins_.push_back(rq.from);
}

void UrcgcProcess::handle_snapshot_rq(const SnapshotRq& rq) {
  // Only settled members serve baselines: a catching-up joiner's floor is
  // still moving, and a kJoining process has nothing to offer.
  if (join_phase_ != JoinPhase::kMember) return;
  if (rq.from < 0 || rq.from >= latest_.n() || !latest_.alive[rq.from]) {
    // Not (yet) a member under our view: the joiner retries after we both
    // learn the widened decision.
    return;
  }
  SnapshotRsp rsp;
  rsp.from = self_;
  rsp.baseline = mt_.clean_floor();
  rsp.baseline.resize(static_cast<std::size_t>(latest_.n()));
  send_pdu(rq.from, encode_pdu(rsp), stats::MsgClass::kJoin);
}

void UrcgcProcess::handle_snapshot_rsp(const SnapshotRsp& rsp) {
  if (join_phase_ != JoinPhase::kCatchUp) return;
  if (baseline_adopted_) return;  // a duplicate from a slower server
  if (static_cast<int>(rsp.baseline.size()) > config_.n) return;
  mt_.adopt_baseline(rsp.baseline, rt_.now());
  baseline_adopted_ = true;
  join_baseline_ = rsp.baseline;
  ++counters_.join_catchup_batches;
  bump(m_.join_catchup_batches);
  maybe_finish_catchup();
}

void UrcgcProcess::join_round(SubrunId /*subrun*/) {
  if (join_attempts_left_ <= 0) {
    // Admission never arrived. The group either never decided the join
    // (we were invisible — nothing to unwind) or decided it and will cut
    // the silent joiner through the normal K-attempts accounting; either
    // way the survivors stay consistent and we leave cleanly.
    halt(HaltReason::kJoinExhausted);
    return;
  }
  --join_attempts_left_;
  JoinRq rq;
  rq.from = self_;
  rq.attempt = static_cast<std::int32_t>(counters_.join_requested);
  ++counters_.join_requested;
  bump(m_.join_requested);
  broadcast_pdu(encode_pdu(rq), stats::MsgClass::kJoin);
}

void UrcgcProcess::begin_catchup() {
  join_phase_ = JoinPhase::kCatchUp;
  catchup_started_at_ = rt_.now();
  // The admission wait and the catch-up each get the full budget.
  join_attempts_left_ = config_.join_attempts;
  missed_decisions_ = 0;
}

void UrcgcProcess::catchup_round(SubrunId /*subrun*/) {
  if (maybe_finish_catchup()) return;
  if (baseline_adopted_) return;  // the recovery machinery drains the tail
  if (join_attempts_left_ <= 0) {
    halt(HaltReason::kJoinExhausted);
    return;
  }
  --join_attempts_left_;
  // Rotate the solicitation over the live members: a server whose
  // response was dropped (or who has not applied our admission yet) must
  // not absorb the whole budget.
  std::vector<ProcessId> ring;
  for (ProcessId q = 0; q < latest_.n(); ++q) {
    if (q != self_ && latest_.alive[q]) ring.push_back(q);
  }
  if (ring.empty()) return;
  const ProcessId target =
      ring[static_cast<std::size_t>(snapshot_rotation_++) % ring.size()];
  SnapshotRq rq;
  rq.from = self_;
  send_pdu(target, encode_pdu(rq), stats::MsgClass::kJoin);
}

bool UrcgcProcess::maybe_finish_catchup() {
  if (join_phase_ != JoinPhase::kCatchUp || !baseline_adopted_ || halted_) {
    return false;
  }
  // Caught up = nothing blocked locally and nothing the freshest decision
  // advertises beyond our prefix.
  for (ProcessId q = 0; q < latest_.n(); ++q) {
    if (latest_.max_processed[q] > mt_.prefix(q)) return false;
  }
  if (!mt_.missing_ranges().empty()) return false;
  join_phase_ = JoinPhase::kMember;
  if (metrics_ != nullptr && catchup_started_at_ != kNoTick) {
    metrics_->observe(self_, m_.join_catchup_latency_rtd,
                      static_cast<double>(rt_.now() - catchup_started_at_) /
                          static_cast<double>(rt_.clock().ticks_per_rtd()));
  }
  if (observer_ != nullptr) {
    observer_->on_joined(self_, join_baseline_, rt_.now());
  }
  return true;
}

bool UrcgcProcess::from_zombie(const Mid& mid) const {
  // An origin past our view is a joiner admitted by a decision fresher
  // than ours — it only transmits after admission — never a zombie (cuts
  // mark alive=false; they never narrow the view).
  if (mid.origin < 0 || mid.origin >= latest_.n()) return false;
  return !latest_.alive[mid.origin] &&
         mid.seq > latest_.max_processed[mid.origin];
}

bool UrcgcProcess::drop_if_zombie(const AppMessage& msg) {
  // The paper's failure model assumes a dead process sends nothing, so the
  // orphan cut only handles gaps in the waiting list. A partitioned member
  // that the majority cut keeps transmitting until it learns of its own
  // death (heal -> suicide); its post-cut messages arrive gap-free and
  // would silently extend some survivors' histories past the decided
  // point — a permanent uniformity split, since decisions never advertise
  // a dead origin's sequence beyond the cut. Refuse them at the door.
  if (!from_zombie(msg.mid)) return false;
  ++counters_.orphans_discarded;
  bump(m_.orphans_discarded);
  if (observer_ != nullptr) {
    observer_->on_discarded(self_, msg.mid, rt_.now());
  }
  return true;
}

void UrcgcProcess::on_datagram(ProcessId src, wire::FrameRef frame) {
  if (halted_) return;
  if (faults_.is_crashed(self_, rt_.now())) {
    halt(HaltReason::kCrashFault);
    return;
  }
  DecodeContext ctx;
  if (config_.control_encoding == ControlEncoding::kDelta) {
    ctx.cache = &cache_;
  }
  ctx.stub_embeds_upto = latest_.decided_at;
  ctx.scratch = &rx_decision_;
  // Only a frame we could actually use counts as hearing from the group:
  // a dropped delta (anchor miss) is handled "as if the datagram had been
  // lost", and a lost datagram would not have reset the silence guard
  // either — letting it do so here would pin a member that receives only
  // undecodable deltas in the group forever instead of leaving after K
  // silent coordinators, a liveness difference full encoding cannot have.
  if (is_decision_frame(frame)) {
    // Decisions decode into the scratch and are committed — to the anchor
    // cache, then to apply_decision — only once the whole frame decoded,
    // so a garbage frame never touches live state.
    if (auto st = decode_decision_frame(frame, &ctx, rx_decision_,
                                        &rx_patch_);
        !st) {
      drop_undecodable(ctx, st.error());
      return;
    }
    last_datagram_at_ = rt_.now();
    if (ctx.cache == nullptr) {
      handle_decision(src, rx_decision_, 0, &rx_patch_);
      return;
    }
    // Swapped into the ring, not copied; the scratch takes the evicted
    // slot's vectors.
    const DecisionCache::Stored stored = cache_.commit(rx_decision_);
    handle_decision(src, *stored.decision, stored.digest, &rx_patch_);
    return;
  }
  // Application messages keep slices of the frame: shared with the other
  // receivers when the endpoint passed its buffer, else copied once (by
  // pin() or the span decoder).
  if (is_recover_rsp_frame(frame)) {
    // Recovery batches decode into a scratch that keeps its capacity.
    if (auto st = decode_recover_rsp_frame(frame.pin(), rx_recover_); !st) {
      rx_recover_.messages.clear();
      drop_undecodable(ctx, st.error());
      return;
    }
    last_datagram_at_ = rt_.now();
    handle_recover_rsp(rx_recover_);
    return;
  }
  auto pdu = frame.owner() != nullptr ? decode_pdu(frame.pin(), &ctx)
                                      : decode_pdu(frame.view(), &ctx);
  if (!pdu) {
    drop_undecodable(ctx, pdu.error());
    return;
  }
  last_datagram_at_ = rt_.now();
  std::visit(
      [this, src](auto&& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, AppMessage>) {
          // kIgnoreOneDep (checker self-test defect): forget the last
          // declared dependency, so this copy may be processed before one
          // of its causes.
          if (config_.mutation == ProtocolMutation::kIgnoreOneDep &&
              !payload.deps.empty()) {
            payload.deps.pop_back();
          }
          if (!drop_if_zombie(payload) &&
              submit_tracked(std::move(payload), rt_.now()) ==
                  MtEntity::SubmitResult::kRejected) {
            ++counters_.waiting_rejected;
            bump(m_.bp_waiting_rejected);
          }
        } else if constexpr (std::is_same_v<T, Request>) {
          handle_request(std::move(payload));
        } else if constexpr (std::is_same_v<T, Decision>) {
          // Decision frames return above.
          handle_decision(src, payload, 0, nullptr);
        } else if constexpr (std::is_same_v<T, RecoverRq>) {
          handle_recover_rq(payload);
        } else if constexpr (std::is_same_v<T, RecoverRsp>) {
          // Recovery batches return above.
          handle_recover_rsp(payload);
        } else if constexpr (std::is_same_v<T, JoinRq>) {
          handle_join_rq(payload);
        } else if constexpr (std::is_same_v<T, SnapshotRq>) {
          handle_snapshot_rq(payload);
        } else if constexpr (std::is_same_v<T, SnapshotRsp>) {
          handle_snapshot_rsp(payload);
        } else if constexpr (std::is_same_v<T, ClientRq>) {
          // Servers absorb client submissions into their own queue.
          if (config_.structure == GroupStructure::kClientServer &&
              config_.is_server(self_)) {
            user_queue_.emplace_back(std::move(payload.payload),
                                     std::move(payload.deps));
          }
        }
      },
      std::move(pdu).value());
}

void UrcgcProcess::drop_undecodable(const DecodeContext& ctx,
                                    wire::DecodeError error) {
  if (ctx.anchor_missed) {
    // A wire-valid delta frame whose anchor we do not hold: drop it as
    // if the datagram had been lost — the protocol already tolerates
    // that — and resynchronize at the next full snapshot. Distinct from
    // decode_rejected, which is reserved for garbage bytes. The miss is
    // also evidence the SENDER is estranged from our chain (a healed
    // minority kept deciding on its partition-era fork and anchors on
    // decisions we never saw), so the next decision we coordinate goes
    // out as a snapshot the estranged member can decode — that is how a
    // forked zombie finally reads its own death sentence and suicides.
    ++counters_.delta_anchor_miss;
    bump(m_.delta_anchor_miss);
    snapshot_needed_ = true;
    return;
  }
  // A truncated or corrupted datagram must never abort or desync the
  // process: count it at the boundary and carry on.
  ++counters_.decode_rejected;
  bump(m_.decode_rejected);
  URCGC_WARN("p" << self_ << ": undecodable PDU (" << wire::to_string(error)
                 << "), dropped");
}

void UrcgcProcess::handle_decision(ProcessId src, const Decision& d,
                                   std::uint64_t digest,
                                   const DecisionPatch* patch) {
  // Decisions travel straight from their coordinator, so `src` names it.
  // A cut member acting on its stale group view (e.g. a healed minority
  // that has not yet learned of its own death) can coordinate a
  // higher-numbered subrun that resurrects dead members and re-advertises
  // their post-cut progress; applying it would steer recovery toward
  // zombies and fork the history. A coordinator past our view is a joiner
  // admitted by decisions we have not applied — its decision is exactly
  // how we learn of the widened view, so it passes (apply_decision still
  // rejects stale and narrower frames).
  if (src >= 0 && src < latest_.n() && !latest_.alive[src]) return;
  apply_decision(d, digest, patch);
}

void UrcgcProcess::halt(HaltReason reason) {
  if (halted_) return;
  halted_ = true;
  halt_reason_ = reason;
  bump(m_.halts);
  if (reason != HaltReason::kCrashFault) {
    // Suicides and voluntary leaves are silent to the network from now on;
    // registering the crash with the injector makes the subnet drop traffic
    // to/from us exactly like a fail-stop.
    faults_.force_crash(self_, rt_.now());
  }
  if (observer_ != nullptr) observer_->on_halt(self_, reason, rt_.now());
}

void UrcgcProcess::account_control(bool was_delta, std::size_t bytes,
                                   int copies) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(bytes) * static_cast<std::uint64_t>(copies);
  if (was_delta) {
    counters_.control_bytes_delta += total;
    bump(m_.control_bytes_delta, total);
    return;
  }
  counters_.control_bytes_full += total;
  bump(m_.control_bytes_full, total);
  if (config_.control_encoding == ControlEncoding::kDelta) {
    counters_.delta_fallbacks += static_cast<std::uint64_t>(copies);
    bump(m_.delta_fallbacks, static_cast<std::uint64_t>(copies));
  }
}

void UrcgcProcess::send_pdu(ProcessId dst, wire::SharedBuffer bytes,
                            stats::MsgClass cls) {
  if (observer_ != nullptr) {
    observer_->on_sent(self_, cls, bytes.size(), rt_.now());
  }
  endpoint_.send(dst, std::move(bytes));
}

void UrcgcProcess::broadcast_pdu(wire::SharedBuffer bytes,
                                 stats::MsgClass cls) {
  if (observer_ != nullptr) {
    // n-unicast semantics: one message per other live-view member (a
    // kJoining sender's view is the founders' until it is admitted).
    for (ProcessId q = 0; q < latest_.n(); ++q) {
      if (q == self_) continue;
      observer_->on_sent(self_, cls, bytes.size(), rt_.now());
    }
  }
  endpoint_.broadcast(std::move(bytes));
}

}  // namespace urcgc::core
