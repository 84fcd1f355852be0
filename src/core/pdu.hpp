#pragma once
// urcgc protocol data units and their wire formats.
//
// The DECISION layout mirrors the schema of the paper's Figure 2: per
// originator, the stability bookkeeping (max_processed + most_updated,
// min_waiting, accumulated cleaning minimum) and per process the failure
// accounting (attempts, alive). A REQUEST embeds the freshest decision the
// sender holds — that embedded copy is what makes decisions circulate
// reliably across rotating coordinators with resilience t = (n-1)/2.
//
// Sizes reported by bench_table1_overhead are byte counts of these
// encodings.

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "wire/buffer.hpp"
#include "wire/slice.hpp"

namespace urcgc::core {

enum class PduType : std::uint8_t {
  kAppData = 1,
  kRequest = 2,
  kDecision = 3,
  kRecoverRq = 4,
  kRecoverRsp = 5,
  kClientRq = 6,
  /// Delta-encoded control frames (Config::control_encoding = kDelta):
  /// same in-memory structures, sparse against an anchor decision the
  /// receiver holds. See src/core/delta.hpp and DESIGN.md "Control-plane
  /// encoding".
  kRequestDelta = 7,
  kDecisionDelta = 8,
  /// Dynamic membership (DESIGN.md section 12): admission solicitation,
  /// and the snapshot handshake that bootstraps the joiner's causal state
  /// before the batched recovery path drains the live tail.
  kJoinRq = 9,
  kSnapshotRq = 10,
  kSnapshotRsp = 11,
};

/// One agreed stability point: after the subrun that decided it, messages
/// (q, s <= clean_upto[q]) are known processed by every active member.
/// Boundaries are the building block of the total-order (urgc-companion)
/// delivery layer: they partition the message space into globally agreed
/// batches.
struct StabilityBoundary {
  SubrunId subrun = -1;
  std::vector<Seq> clean_upto;

  friend bool operator==(const StabilityBoundary&,
                         const StabilityBoundary&) = default;
};

/// Coordinator decision (paper Section 4, Figure 2).
struct Decision {
  /// Subrun at which this decision was computed. Subrun -1 = the initial
  /// decision every process boots with.
  SubrunId decided_at = -1;
  ProcessId coordinator = kNoProcess;

  /// True when the stability minimum below covers the full set of active
  /// processes and may therefore be used to clean histories.
  bool full_group = false;

  /// Per originator: histories may be purged up to this seq (inclusive)
  /// when full_group is true.
  std::vector<Seq> clean_upto;

  /// Stability accumulation across coordinators: element-wise minimum of
  /// last_processed over the processes in `heard`, gathered since the last
  /// cleaning. Becomes clean_upto once `heard` covers the group.
  std::vector<Seq> stable_acc;
  std::vector<bool> heard;

  /// Per originator: seq of the last message processed by the most updated
  /// process, and who that process is — the target for history recovery.
  std::vector<Seq> max_processed;
  std::vector<ProcessId> most_updated;

  /// Per originator: oldest seq waiting in any reporting process's waiting
  /// list this subrun (kNoSeq = nobody is waiting). Drives the orphan cut.
  std::vector<Seq> min_waiting;

  /// Per process: consecutive subruns it failed to reach a coordinator.
  std::vector<std::uint8_t> attempts;

  /// Per process: group membership (process_state of the paper).
  std::vector<bool> alive;

  /// Total count of full_group stability decisions in this decision's
  /// chain, and a bounded window of the most recent boundaries (oldest
  /// first). Populated only when Config::track_stability_boundaries is on;
  /// rides along every decision so a member that missed the stability
  /// decision's datagram still learns the boundary from any later one.
  std::int64_t stability_epoch = 0;
  std::vector<StabilityBoundary> boundaries;

  /// Maximum boundaries kept in the window.
  static constexpr std::size_t kBoundaryWindow = 8;

  [[nodiscard]] static Decision initial(int n);
  [[nodiscard]] int n() const { return static_cast<int>(alive.size()); }
  [[nodiscard]] int alive_count() const;

  friend bool operator==(const Decision&, const Decision&) = default;
};

/// Per-subrun request a process sends to the current coordinator.
struct Request {
  SubrunId subrun = 0;
  ProcessId from = kNoProcess;
  /// last_processed[j]: contiguous processed prefix of p_j's sequence.
  std::vector<Seq> last_processed;
  /// oldest waiting seq per originator (kNoSeq = none waiting).
  std::vector<Seq> oldest_waiting;
  /// Freshest decision known to the sender.
  Decision prev_decision;

  friend bool operator==(const Request&, const Request&) = default;
};

/// Point-to-point history recovery: ask `target` for origin's messages in
/// [from_seq, to_seq].
struct RecoverRq {
  ProcessId from = kNoProcess;
  ProcessId origin = kNoProcess;
  Seq from_seq = kNoSeq;
  Seq to_seq = kNoSeq;

  friend bool operator==(const RecoverRq&, const RecoverRq&) = default;
};

struct RecoverRsp {
  ProcessId from = kNoProcess;
  ProcessId origin = kNoProcess;
  /// Upper bound of the request being answered, echoed back so the
  /// requester can continue a truncated batch without re-deriving the gap.
  Seq to_seq = kNoSeq;
  /// True when the server held more stored messages in the requested range
  /// than the batch cap allowed — "more available", not "gap satisfied".
  bool truncated = false;
  std::vector<AppMessage> messages;

  friend bool operator==(const RecoverRsp&, const RecoverRsp&) = default;
};

/// Dynamic membership: a provisioned-but-dormant process solicits
/// admission. Broadcast every request round (budget-limited) until the
/// sender observes a decided view that includes it — the acting
/// coordinator admits parked joins by widening the next decision's member
/// vectors at the decided subrun boundary.
struct JoinRq {
  ProcessId from = kNoProcess;
  /// Admission attempt ordinal (diagnostics; not protocol-relevant).
  std::int32_t attempt = 0;

  friend bool operator==(const JoinRq&, const JoinRq&) = default;
};

/// Joiner -> member: request a history-snapshot baseline once admitted.
struct SnapshotRq {
  ProcessId from = kNoProcess;

  friend bool operator==(const SnapshotRq&, const SnapshotRq&) = default;
};

/// Member -> joiner: the serving member's per-origin clean floor. Every
/// (origin, seq <= baseline[origin]) is group-stable — processed by all
/// active members and possibly purged from histories — so the joiner
/// adopts the floor as its processed prefix and drains the live tail
/// (baseline, max_processed] over the batched recovery path (RecoverRq
/// continuations, capped batches, serve cache).
struct SnapshotRsp {
  ProcessId from = kNoProcess;
  /// Per-origin adopted processed prefix; width = server's live view.
  std::vector<Seq> baseline;

  friend bool operator==(const SnapshotRsp&, const SnapshotRsp&) = default;
};

/// Client-server structure: a client hands its payload (and the causal
/// dependencies it declares) to its home server, which generates the
/// message within its own sequence.
struct ClientRq {
  ProcessId from = kNoProcess;
  std::vector<Mid> deps;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const ClientRq&, const ClientRq&) = default;
};

/// Any decodable urcgc PDU (AppMessage arrives as kAppData frames).
using Pdu = std::variant<AppMessage, Request, Decision, RecoverRq, RecoverRsp,
                         ClientRq, JoinRq, SnapshotRq, SnapshotRsp>;

[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const AppMessage& msg);
/// An application frame carrying `payload` in place of msg.payload: the
/// sender encodes first, then makes its stored copy's payload a slice of
/// the frame it broadcasts.
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(
    const AppMessage& msg, std::span<const std::uint8_t> payload);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const Request& rq);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const Decision& d);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const RecoverRq& rq);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const RecoverRsp& rsp);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const ClientRq& rq);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const JoinRq& rq);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const SnapshotRq& rq);
[[nodiscard]] std::vector<std::uint8_t> encode_pdu(const SnapshotRsp& rsp);

/// Writes the fields of a RecoverRsp frame that precede its messages,
/// announcing `count` of them; the caller then appends each message with
/// encode(w, msg). A recovery server encodes straight from its history
/// this way, without collecting copies first.
void encode_recover_rsp_header(wire::Writer& w, const RecoverRsp& rsp,
                               std::size_t count);
/// Bytes encode_recover_rsp_header writes.
inline constexpr std::size_t kRecoverRspHeaderBytes = 1 + 4 + 4 + 8 + 1 + 4;

/// Canonical full encoding of a decision body — the payload of a full
/// DECISION frame, the tail of a full REQUEST, and the byte string
/// delta.hpp's decision_digest() hashes to name anchors.
void encode_decision_body(wire::Writer& w, const Decision& d);
/// Decodes a full decision body into `out`, overwriting every field and
/// reusing its vectors' capacity. On error `out` is partially written.
[[nodiscard]] Status<wire::DecodeError> decode_decision_body(wire::Reader& r,
                                                             Decision& out);

/// Exact byte sizes of encode_pdu(d) and encode_pdu(rq): full control
/// frames reserve them up front instead of growing by doubling.
[[nodiscard]] std::size_t full_frame_size(const Decision& d);
[[nodiscard]] std::size_t full_frame_size(const Request& rq);

class DecisionCache;  // delta.hpp: anchor window with stored digests

/// Encoding-dispatching control-plane encoders: produce a delta frame
/// when the config selects kDelta and no full-snapshot trigger fires
/// (delta.hpp's eligibility rules), a full frame otherwise. A DECISION is
/// delta-encoded against `anchor`, the base decision it was computed
/// from; a REQUEST against its own embedded prev_decision. `was_delta`,
/// when non-null, reports which frame kind was produced (the
/// core.delta_fallbacks / core.control_bytes_{full,delta} accounting).
/// `anchors`, when non-null, supplies the anchor's digest if it is cached;
/// otherwise the digest is computed.
[[nodiscard]] std::vector<std::uint8_t> encode_request_pdu(
    const Request& rq, const Config& config, bool* was_delta = nullptr,
    const DecisionCache* anchors = nullptr);
/// `receivers_hold_anchor` is the coordinator's receiver-coverage proof:
/// true only when every alive receiver demonstrated (via this subrun's
/// request embeds) that it already caches `anchor`. Delta DECISIONs chain
/// on their anchor, so a receiver that lost one broadcast would stay
/// unable to decode every following delta until the periodic snapshot;
/// passing false here spends the full frame immediately instead, which —
/// decisions being cumulative — resynchronizes any lagging member with a
/// single receipt, exactly like the full encoding does.
[[nodiscard]] std::vector<std::uint8_t> encode_decision_pdu(
    const Decision& d, const Decision& anchor, const Config& config,
    bool receivers_hold_anchor = true, bool* was_delta = nullptr,
    const DecisionCache* anchors = nullptr);

struct DecodeContext;  // delta.hpp: anchor cache + anchor-miss signal

/// Decodes any PDU frame. `ctx` supplies the receiver's DecisionCache for
/// delta frames and receives decoded decisions for future anchoring; with
/// ctx == nullptr (or a null cache) every delta frame reports an anchor
/// miss. Full frames never need a context. REQUEST embeds no fresher than
/// ctx->stub_embeds_upto come back as stubs (only decided_at set); a
/// stubbed frame is accepted or rejected exactly as a full decode would.
///
/// Decoded application messages (kAppData, kRecoverRsp) keep their
/// payloads as slices of a frame, so this overload, which has no owner
/// for `bytes`, copies such a frame once into a new buffer first. Every
/// other frame type decodes without that copy.
[[nodiscard]] Result<Pdu, wire::DecodeError> decode_pdu(
    std::span<const std::uint8_t> bytes, DecodeContext* ctx = nullptr);
/// The same for a frame a SharedBuffer already holds: application
/// payloads become slices of `frame`'s buffer, and nothing is copied.
/// `ctx` has no default, so a braced list or a std::vector argument
/// always selects the span overload.
[[nodiscard]] Result<Pdu, wire::DecodeError> decode_pdu(
    const wire::Slice& frame, DecodeContext* ctx);

/// True when `bytes` is a DECISION or DECISION_DELTA frame.
[[nodiscard]] bool is_decision_frame(std::span<const std::uint8_t> bytes);

/// True when `bytes` is a kRecoverRsp frame.
[[nodiscard]] bool is_recover_rsp_frame(std::span<const std::uint8_t> bytes);

/// Decodes a kRecoverRsp frame into `out`, a caller-owned scratch whose
/// messages vector keeps its capacity; each message's payload is a slice
/// of `frame`'s buffer. On error `out` holds a partial decode and must not
/// be used.
[[nodiscard]] Status<wire::DecodeError> decode_recover_rsp_frame(
    const wire::Slice& frame, RecoverRsp& out);

struct DecisionPatch;  // delta.hpp: what a delta frame changed

/// Decodes a DECISION or DECISION_DELTA frame into `out`, a caller-owned
/// scratch: a delta is the anchor assigned into `out` and patched in
/// place, so a reused scratch keeps its vectors' capacity. `patch`, when
/// non-null, receives what a delta changed against its anchor (and
/// delta = false for a full frame). Unlike decode_pdu it inserts nothing
/// into ctx->cache — the caller commits `out` once this succeeds. On error
/// `out` holds a partial decode and must not be used.
[[nodiscard]] Status<wire::DecodeError> decode_decision_frame(
    std::span<const std::uint8_t> bytes, DecodeContext* ctx, Decision& out,
    DecisionPatch* patch = nullptr);

}  // namespace urcgc::core
