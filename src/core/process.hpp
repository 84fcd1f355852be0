#pragma once
// UrcgcProcess: one group member running the urcgc protocol.
//
// Composes the two sublayers of the paper's protocol architecture
// (Section 5): the GMT sublayer (MtEntity — message processing, history,
// recovery) and the GC sublayer implemented here — the per-round / per-
// subrun engine:
//
//   request round (2s):   poll fail-stop faults; account missed decisions
//                         (K misses => leave); issue history recovery
//                         (R fruitless attempts => leave); generate up to
//                         the pipeline's budget of user messages (unless
//                         flow-controlled); send REQUEST to the subrun's
//                         rotating coordinator.
//   decision round (2s+1): the coordinator merges the requests it heard
//                         with the freshest circulating decision, applies
//                         and broadcasts the result.
//   any time:             datagrams arrive — app messages, requests,
//                         decisions, recovery PDUs.
//
// The data plane (eager causal delivery through MtEntity's waiting list)
// is decoupled from the subrun cadence: the cadence-coupled control state
// — the failure detector's awaited decision, the coordinator inbox
// windows, the per-round generation budget — lives in SubrunPipeline,
// parameterized by Config::max_subruns_in_flight (k). k=1 reproduces the
// paper's paced behavior bit for bit; k>1 lets up to k DECISIONs trail in
// flight while generation and delivery run ahead.
//
// The user-facing SAP is data_rq(): payload plus optional explicit causal
// dependencies, confirmed locally when the message is generated, with the
// Indication surfacing through Observer::on_processed / the deliver_ind
// callback on every member.

#include <deque>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/coordinator.hpp"
#include "core/delta.hpp"
#include "core/mt_entity.hpp"
#include "core/observer.hpp"
#include "core/pdu.hpp"
#include "core/pipeline.hpp"
#include "fault/injector.hpp"
#include "net/endpoint.hpp"
#include "obs/registry.hpp"
#include "runtime/runtime.hpp"

namespace urcgc::core {

class UrcgcProcess {
 public:
  /// `metrics`, when given, receives the per-process protocol counters
  /// (shard `self`) under the obs::Registry thread-safety contract: this
  /// process only ever touches its own shard.
  UrcgcProcess(const Config& config, ProcessId self, rt::Runtime& runtime,
               net::Endpoint& endpoint, fault::FaultInjector& faults,
               Observer* observer = nullptr,
               obs::Registry* metrics = nullptr);

  UrcgcProcess(const UrcgcProcess&) = delete;
  UrcgcProcess& operator=(const UrcgcProcess&) = delete;

  /// Registers the round handler and the datagram upcall (both owned by
  /// this process's execution context). Call once, before the runtime runs.
  void start();

  // ---- Service access point (urcgc_data_Rq) ----

  /// Queues a payload for multicast. At most the pipeline budget's worth
  /// of queued messages is generated per round (one at k=1, the paper's
  /// maximum service rate). `deps` are the
  /// user-declared causal predecessors; the causality mode may add implicit
  /// ones (own predecessor under kIntermediate, everyone's last message
  /// under kTemporal). Returns false if the process has halted.
  bool data_rq(std::vector<std::uint8_t> payload, std::vector<Mid> deps = {});

  /// Deliver indication (urcgc_data_Ind): invoked for every processed
  /// message, own messages included.
  void set_deliver_ind(MtEntity::ProcessedFn fn);

  /// Invoked whenever the applied decision's stability epoch advances —
  /// i.e. one or more new group-wide stability boundaries became known.
  /// The decision's `boundaries` window holds the recent boundaries in
  /// order. Requires Config::track_stability_boundaries.
  using StabilityFn = std::function<void(const Decision&)>;
  void set_stability_ind(StabilityFn fn) { stability_ind_ = std::move(fn); }

  // ---- Introspection ----

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_reason_; }
  [[nodiscard]] const MtEntity& mt() const { return mt_; }
  [[nodiscard]] const Decision& latest_decision() const { return latest_; }
  /// Delta-encoding anchor window (empty under full encoding).
  [[nodiscard]] const DecisionCache& decision_cache() const { return cache_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Dynamic-membership phase (DESIGN.md section 12). Founders are members
  /// from the start; a provisioned joiner solicits admission (kJoining),
  /// then bootstraps its causal state (kCatchUp), then participates in
  /// full (kMember).
  enum class JoinPhase : std::uint8_t { kMember, kJoining, kCatchUp };
  [[nodiscard]] JoinPhase join_phase() const { return join_phase_; }
  /// True once this process is a fully caught-up group member — the gate
  /// workloads use before generating traffic on a joiner.
  [[nodiscard]] bool member() const {
    return join_phase_ == JoinPhase::kMember;
  }
  /// Width of the live view this process believes in (<= capacity n).
  [[nodiscard]] int view() const { return latest_.n(); }

  /// Mid of the last message of `origin` this process has processed in
  /// contiguous order (invalid Mid if none) — what workloads use to declare
  /// cross-process dependencies.
  [[nodiscard]] Mid last_processed_mid_of(ProcessId origin) const;

  [[nodiscard]] Seq next_seq() const { return next_seq_; }
  [[nodiscard]] std::size_t pending_user_messages() const {
    return user_queue_.size();
  }
  [[nodiscard]] bool flow_blocked() const;

  /// Rotating coordinator of subrun s under this process's current view:
  /// the first process at or cyclically after (s mod n) it believes alive.
  [[nodiscard]] ProcessId coordinator_of(SubrunId s) const;

  /// Requests currently parked across the open coordinator inbox windows
  /// — a per-round observability gauge.
  [[nodiscard]] std::size_t inbox_size() const { return pipeline_.parked(); }
  /// Exact high-water mark of a single window's occupancy over the whole
  /// run — the buffer-bounds clause compares this against inbox_cap.
  [[nodiscard]] std::size_t inbox_peak() const {
    return pipeline_.window_peak();
  }

  /// Decisions outstanding at the entry of `subrun` under this process's
  /// freshest decision (0 when fully caught up) — the per-round
  /// decisions-in-flight gauge.
  [[nodiscard]] int decisions_in_flight(SubrunId subrun) const {
    return pipeline_.decisions_in_flight(subrun, latest_.decided_at);
  }

  /// True while the waiting list sits at its hard cap — the sender-side
  /// admission pause: generating more traffic would only be rejected again
  /// downstream, so generation stalls like flow control does.
  [[nodiscard]] bool backpressured() const;

  struct Counters {
    std::uint64_t generated = 0;
    std::uint64_t flow_blocked_rounds = 0;
    std::uint64_t recoveries_issued = 0;
    std::uint64_t recoveries_served = 0;
    std::uint64_t decisions_made = 0;
    std::uint64_t decisions_applied = 0;
    std::uint64_t orphans_discarded = 0;
    std::uint64_t cleanings = 0;
    /// REQUESTs that reached us outside the open inbox window (late or
    /// early) and were discarded — each one shrinks a decision quorum.
    std::uint64_t requests_dropped = 0;
    /// Non-empty recovery batches absorbed, and messages actually
    /// recovered out of them (duplicates excluded).
    std::uint64_t recovery_batches = 0;
    std::uint64_t recovery_msgs = 0;
    /// Follow-on RecoverRqs issued immediately after a truncated batch
    /// (also counted in recoveries_issued).
    std::uint64_t recovery_continuations = 0;
    /// Per-target retry budgets spent, each rotating to the next peer.
    std::uint64_t recovery_budget_exhausted = 0;
    /// Recovery batches served from the encoded-frame cache (identical
    /// range, unchanged history) instead of re-serializing.
    std::uint64_t recovery_cache_hits = 0;
    /// Backpressure family: messages refused at the waiting cap, rounds
    /// generation paused while backpressured, duplicate REQUESTs merged
    /// away, REQUESTs dropped at the inbox cap.
    std::uint64_t waiting_rejected = 0;
    std::uint64_t backpressure_paused_rounds = 0;
    std::uint64_t inbox_duplicates = 0;
    std::uint64_t inbox_overflow = 0;
    /// Pipelining family: messages delivered while the local decision
    /// trailed the current subrun by more than the paced lag (the data
    /// plane running ahead of the control plane); request rounds entered
    /// with the generation budget collapsed because the decision lag
    /// reached the pipeline depth; and the sum of decisions-in-flight
    /// over request rounds (divide by subruns for the mean depth).
    std::uint64_t pipeline_eager_deliveries = 0;
    std::uint64_t pipeline_stall_rounds = 0;
    std::uint64_t pipeline_subruns_in_flight = 0;
    /// Datagrams that failed PDU decoding (truncated, garbage, unknown
    /// type) — counted and dropped at the boundary, never acted upon.
    std::uint64_t decode_rejected = 0;
    /// Control-plane encoding family: REQUEST/DECISION bytes sent as full
    /// frames vs delta frames (broadcasts count per receiver, matching
    /// the n-unicast on_sent semantics); full frames emitted while the
    /// config asked for delta (a fallback trigger fired); and wire-valid
    /// delta frames dropped because their anchor was not cached.
    std::uint64_t control_bytes_full = 0;
    std::uint64_t control_bytes_delta = 0;
    std::uint64_t delta_fallbacks = 0;
    std::uint64_t delta_anchor_miss = 0;
    /// Dynamic-membership family: JOIN solicitations broadcast (joiner
    /// side), joiners admitted into a decision this process coordinated,
    /// and snapshot/recovery batches + messages absorbed while catching
    /// up (joiner side).
    std::uint64_t join_requested = 0;
    std::uint64_t join_decided = 0;
    std::uint64_t join_catchup_batches = 0;
    std::uint64_t join_catchup_msgs = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void on_round(RoundId round);
  void on_datagram(ProcessId src, wire::FrameRef frame);

  void request_round(SubrunId subrun);
  void decision_round(SubrunId subrun);
  /// Generates up to the pipeline's budget for this round; each round of
  /// a subrun gets its own budget, so one subrun moves at most 2k user
  /// messages (2 at k=1, the paper's maximum service rate).
  void generate_burst(SubrunId subrun);
  /// Generates at most one queued message; false when the queue is empty
  /// or generation is paused (flow control / backpressure).
  bool generate_one(Tick now);
  /// mt_.submit plus eager-delivery accounting: every message processed
  /// by the submission (cascaded releases included) while the decision
  /// lag exceeds the paced one counts as an eager delivery.
  MtEntity::SubmitResult submit_tracked(AppMessage msg, Tick now);
  void send_request(SubrunId subrun);
  void act_as_coordinator(SubrunId subrun);
  /// Adopts `d` (whose digest is `digest`) as latest_ unless it is stale
  /// or narrower. When `patch` says `d` was decoded as a delta against
  /// latest_ itself, latest_ is patched in place and the follow-up work —
  /// report tracking, cleaning, the orphan cut — visits only what changed.
  void apply_decision(const Decision& d, std::uint64_t digest,
                      const DecisionPatch* patch);
  void issue_recoveries(SubrunId subrun);
  /// Candidate servers for origin's gap starting at from_seq, in rotation
  /// order: the advertised most-updated holder, then the originator, then
  /// every other live member (anyone who processed the span still holds it
  /// — cleaning cannot pass our own prefix). Fills and returns a member
  /// scratch, valid until the next call.
  const std::vector<ProcessId>& recovery_candidates(ProcessId origin,
                                                    Seq from_seq);

  /// Applies a decoded decision unless its coordinator `src` is a member
  /// our view has cut.
  void handle_decision(ProcessId src, const Decision& d, std::uint64_t digest,
                       const DecisionPatch* patch);
  void handle_request(Request rq);
  void handle_recover_rq(const RecoverRq& rq);
  /// Submits a recovery batch; consumes (moves from, then clears) its
  /// messages.
  void handle_recover_rsp(RecoverRsp& rsp);
  void handle_join_rq(const JoinRq& rq);
  void handle_snapshot_rq(const SnapshotRq& rq);
  void handle_snapshot_rsp(const SnapshotRsp& rsp);

  /// kJoining request round: broadcast a JOIN solicitation against the
  /// admission budget.
  void join_round(SubrunId subrun);
  /// kCatchUp request round: solicit the snapshot baseline (rotating over
  /// live members, against the budget) until adopted; check completion.
  void catchup_round(SubrunId subrun);
  /// Transition kJoining -> kCatchUp on seeing ourselves in the view.
  void begin_catchup();
  /// kCatchUp -> kMember when the baseline is adopted and no gap remains
  /// (locally blocked or decision-advertised). Returns true on transition.
  bool maybe_finish_catchup();

  /// True when `mid` is new traffic from a member the latest decision
  /// declares dead — a zombie message that must not enter the history.
  [[nodiscard]] bool from_zombie(const Mid& mid) const;
  /// Drops a zombie message with accounting; returns true when dropped.
  bool drop_if_zombie(const AppMessage& msg);

  /// Accounts a datagram that did not decode: an anchor miss (dropped as
  /// an omission, next coordinated decision a snapshot) or garbage.
  void drop_undecodable(const DecodeContext& ctx, wire::DecodeError error);

  void halt(HaltReason reason);
  /// Control-plane byte accounting per frame kind: `copies` is the fan-out
  /// (1 for a REQUEST, n-1 for a DECISION broadcast).
  void account_control(bool was_delta, std::size_t bytes, int copies);
  void send_pdu(ProcessId dst, wire::SharedBuffer bytes, stats::MsgClass cls);
  /// Serializes once; the endpoint/subnet share `bytes` across the fan-out.
  void broadcast_pdu(wire::SharedBuffer bytes, stats::MsgClass cls);

  /// Builds the dependency list for a message about to carry (self, my_seq)
  /// under the configured causality mode.
  [[nodiscard]] causal::DepList build_deps(const std::vector<Mid>& user_deps,
                                           Seq my_seq) const;

  /// Increments a registry counter on this process's shard; no-op when no
  /// registry is attached.
  void bump(obs::Metric m, std::uint64_t delta = 1) {
    if (metrics_ != nullptr) metrics_->add(self_, m, delta);
  }

  Config config_;
  ProcessId self_;
  rt::Runtime& rt_;
  net::Endpoint& endpoint_;
  fault::FaultInjector& faults_;
  Observer* observer_;
  obs::Registry* metrics_;
  /// Handles into `metrics_` (all invalid when metrics_ == nullptr).
  struct Handles {
    obs::Metric generated;
    obs::Metric flow_blocked_rounds;
    obs::Metric recoveries_issued;
    obs::Metric recoveries_served;
    obs::Metric decisions_made;
    obs::Metric decisions_applied;
    obs::Metric orphans_discarded;
    obs::Metric cleanings;
    obs::Metric requests_dropped;
    obs::Metric halts;
    obs::Metric recovery_batches;
    obs::Metric recovery_msgs;
    obs::Metric recovery_continuations;
    obs::Metric recovery_budget_exhausted;
    obs::Metric recovery_cache_hits;
    obs::Metric recovery_latency_rtd;  // histogram: gap-open -> gap-closed
    obs::Metric bp_waiting_rejected;
    obs::Metric bp_paused_rounds;
    obs::Metric bp_inbox_duplicates;
    obs::Metric bp_inbox_overflow;
    obs::Metric pipeline_eager_deliveries;
    obs::Metric pipeline_stall_rounds;
    obs::Metric pipeline_subruns_in_flight;
    obs::Metric decode_rejected;
    obs::Metric control_bytes_full;
    obs::Metric control_bytes_delta;
    obs::Metric delta_fallbacks;
    obs::Metric delta_anchor_miss;
    obs::Metric join_requested;
    obs::Metric join_decided;
    obs::Metric join_catchup_batches;
    obs::Metric join_catchup_msgs;
    obs::Metric join_catchup_latency_rtd;  // histogram: admitted -> member
  } m_;
  MtEntity mt_;

  Decision latest_;
  /// Digest of latest_ under delta encoding (the anchor name its REQUESTs
  /// carry), kept beside it so no request round hashes or compares it.
  std::uint64_t latest_digest_ = 0;
  /// True when latest_ is a full_group decision whose cleaning points were
  /// all applied to mt_ — the premise of cleaning only what a patch moved.
  bool latest_cleaned_ = false;
  /// Members latest_ declares dead, ascending: the orphan cut's domain.
  std::vector<ProcessId> dead_;
  /// Delta-encoding anchor window: decisions recently applied, computed
  /// or decoded here (populated only under ControlEncoding::kDelta).
  DecisionCache cache_;
  /// Scratch a received DECISION frame (or a stubbed REQUEST embed)
  /// decodes into before it is swapped into cache_; it then holds the
  /// evicted slot's vectors, so it keeps its capacity. Never aliased by
  /// latest_ or a cache slot.
  Decision rx_decision_;
  /// What the last DECISION_DELTA changed against its anchor.
  DecisionPatch rx_patch_;
  /// Scratch a received RecoverRsp decodes into; empty between frames.
  RecoverRsp rx_recover_;
  /// Request-round scratch: the REQUEST_DELTA's two sparse report
  /// sections, reused every subrun.
  std::vector<wire::SeqOverride> tx_processed_;
  std::vector<wire::SeqOverride> tx_waiting_;
  Seq next_seq_ = 1;
  std::deque<std::pair<std::vector<std::uint8_t>, std::vector<Mid>>>
      user_queue_;

  // Control-plane cadence state: the coordinator inbox windows (k deep),
  // the awaited-decision rule and the per-round generation budget.
  SubrunPipeline pipeline_;

  // Failure-detection bookkeeping. The decision awaited at the start of
  // subrun s is the one of subrun s-k (k = pipeline depth; s-1 at the
  // paper's k=1); it counts as received only when latest_.decided_at has
  // reached it (a delayed decision from an older subrun must not mask a
  // dead coordinator).
  int missed_decisions_ = 0;
  Tick last_datagram_at_ = -1;
  /// Delta mode: evidence arrived since our last decision that some
  /// member is off our anchor chain — a frame whose anchor we do not hold
  /// (the sender is chaining on decisions we never saw: a cut member's
  /// partition-era fork, or a peer that outran us), or a request from a
  /// member the group already cut (the zombie transmits because it has
  /// not yet learned of its own death, and it can only learn it from a
  /// decision it can decode). Either way the next decision we coordinate
  /// must be a full snapshot, never a delta chained on anchors the
  /// estranged member cannot hold.
  bool snapshot_needed_ = false;

  // Recovery bookkeeping (per origin): fruitless-attempt count toward R,
  // retry budget against the current target, rotation through candidate
  // servers, exponential backoff, and gap-open timestamp for the latency
  // histogram.
  struct RecoveryState {
    int attempts = 0;        ///< fruitless attempts since last progress
    Seq baseline = kNoSeq;   ///< processed prefix at the last attempt
    int target_attempts = 0; ///< attempts charged to the current target
    int rotation = 0;        ///< index into the candidate ring
    SubrunId next_attempt = 0;  ///< backoff: earliest subrun to retry
    Tick gap_since = kNoTick;   ///< when this origin first went missing
  };
  std::vector<RecoveryState> recovery_;
  /// recovery_candidates() scratch.
  std::vector<ProcessId> candidates_;
  /// Origins whose RecoveryState is open (gap_since set), in opening order.
  std::vector<ProcessId> recovering_;

  // Single-entry recovery serve cache: the last batch encoded, revalidated
  // by History::version(). Identical requests from several peers (the
  // common storm shape: everyone misses the same broadcast) share one
  // serialization and one refcounted frame.
  struct ServeCache {
    ProcessId origin = kNoProcess;
    Seq from_seq = kNoSeq;
    Seq to_seq = kNoSeq;
    std::uint64_t version = 0;
    bool empty = true;
    wire::SharedBuffer frame;
  };
  ServeCache serve_cache_;

  // Dynamic-membership state. parked_joins_ is everyone's (not just the
  // coordinator's): the rotation means any member may coordinate the
  // decision boundary that admits a parked joiner. Ids already inside the
  // applied view are pruned on every decision.
  JoinPhase join_phase_ = JoinPhase::kMember;
  int join_attempts_left_ = 0;
  bool baseline_adopted_ = false;
  std::vector<Seq> join_baseline_;
  Tick catchup_started_at_ = kNoTick;
  int snapshot_rotation_ = 0;
  std::vector<ProcessId> parked_joins_;

  bool halted_ = false;
  HaltReason halt_reason_ = HaltReason::kNone;
  bool started_ = false;
  Counters counters_;
  StabilityFn stability_ind_;
  std::int64_t notified_epoch_ = 0;
};

}  // namespace urcgc::core
