#include "core/pdu.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/delta.hpp"
#include "wire/codec.hpp"

namespace urcgc::core {

Decision Decision::initial(int n) {
  Decision d;
  d.decided_at = -1;
  d.coordinator = kNoProcess;
  d.full_group = false;
  d.clean_upto.assign(n, kNoSeq);
  d.stable_acc.assign(n, kNoSeq);
  d.heard.assign(n, false);
  d.max_processed.assign(n, kNoSeq);
  d.most_updated.assign(n, kNoProcess);
  d.min_waiting.assign(n, kNoSeq);
  d.attempts.assign(n, 0);
  d.alive.assign(n, true);
  return d;
}

int Decision::alive_count() const {
  int count = 0;
  for (bool a : alive) count += a ? 1 : 0;
  return count;
}

namespace {

// Process ids travel as u16 (0xFFFF = kNoProcess): groups are far smaller
// than 65535 and the decision carries one id per member.
constexpr std::uint16_t kNoProcessWire = 0xFFFF;

template <typename Sink>
void put_pids(Sink& w, const std::vector<ProcessId>& pids) {
  w.u32(static_cast<std::uint32_t>(pids.size()));
  for (ProcessId p : pids) {
    w.u16(p == kNoProcess ? kNoProcessWire : static_cast<std::uint16_t>(p));
  }
}

Status<wire::DecodeError> read_pids(wire::Reader& r,
                                    std::vector<ProcessId>& out) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  if (count.value() * 2ULL > r.remaining()) {
    return Unexpected(wire::DecodeError::kTruncated);
  }
  out.resize(count.value());
  for (ProcessId& p : out) {
    const std::uint16_t v = r.u16().value();
    p = v == kNoProcessWire ? kNoProcess : static_cast<ProcessId>(v);
  }
  return {};
}

/// The canonical decision body, written to a Writer (the wire) or to an
/// Fnv1aSink (the anchor digest) — one layout for both.
template <typename Sink>
void put_decision_body(Sink& w, const Decision& d) {
  w.i64(d.decided_at);
  w.i32(d.coordinator);
  w.boolean(d.full_group);
  wire::put_seqs32(w, d.clean_upto);
  wire::put_seqs32(w, d.stable_acc);
  wire::put_bools(w, d.heard);
  wire::put_seqs32(w, d.max_processed);
  put_pids(w, d.most_updated);
  wire::put_seqs32(w, d.min_waiting);
  wire::put_u8s(w, d.attempts);
  wire::put_bools(w, d.alive);
  w.i64(d.stability_epoch);
  w.u32(static_cast<std::uint32_t>(d.boundaries.size()));
  for (const StabilityBoundary& boundary : d.boundaries) {
    w.i64(boundary.subrun);
    wire::put_seqs32(w, boundary.clean_upto);
  }
}

std::size_t seqs32_size(const std::vector<Seq>& v) { return 4 + 4 * v.size(); }
std::size_t bools_size(const std::vector<bool>& v) {
  return 4 + (v.size() + 7) / 8;
}

std::size_t decision_body_size(const Decision& d) {
  std::size_t size = 8 + 4 + 1;  // decided_at, coordinator, full_group
  size += seqs32_size(d.clean_upto) + seqs32_size(d.stable_acc) +
          bools_size(d.heard) + seqs32_size(d.max_processed) +
          (4 + 2 * d.most_updated.size()) + seqs32_size(d.min_waiting) +
          (4 + d.attempts.size()) + bools_size(d.alive);
  size += 8 + 4;  // stability_epoch, boundary count
  for (const StabilityBoundary& boundary : d.boundaries) {
    size += 8 + seqs32_size(boundary.clean_upto);
  }
  return size;
}

std::uint64_t anchor_digest(const Decision& anchor,
                            const DecisionCache* anchors) {
  return anchors != nullptr ? anchors->digest_of(anchor)
                            : decision_digest(anchor);
}

}  // namespace

void encode_decision_body(wire::Writer& w, const Decision& d) {
  put_decision_body(w, d);
}

std::uint64_t decision_digest(const Decision& d) {
  wire::Fnv1aSink hash;
  put_decision_body(hash, d);
  return hash.value();
}

std::size_t full_frame_size(const Decision& d) {
  return 1 + decision_body_size(d);
}

std::size_t full_frame_size(const Request& rq) {
  return 1 + 8 + 4 + seqs32_size(rq.last_processed) +
         seqs32_size(rq.oldest_waiting) + decision_body_size(rq.prev_decision);
}

Status<wire::DecodeError> decode_decision_body(wire::Reader& r,
                                               Decision& out) {
  auto decided_at = r.i64();
  if (!decided_at) return Unexpected(decided_at.error());
  out.decided_at = decided_at.value();
  auto coordinator = r.i32();
  if (!coordinator) return Unexpected(coordinator.error());
  out.coordinator = coordinator.value();
  auto full_group = r.boolean();
  if (!full_group) return Unexpected(full_group.error());
  out.full_group = full_group.value();

  if (auto st = wire::read_seqs32(r, out.clean_upto); !st) return st;
  if (auto st = wire::read_seqs32(r, out.stable_acc); !st) return st;
  if (auto st = wire::read_bools(r, out.heard); !st) return st;
  if (auto st = wire::read_seqs32(r, out.max_processed); !st) return st;
  if (auto st = read_pids(r, out.most_updated); !st) return st;
  if (auto st = wire::read_seqs32(r, out.min_waiting); !st) return st;
  if (auto st = wire::read_u8s(r, out.attempts); !st) return st;
  if (auto st = wire::read_bools(r, out.alive); !st) return st;
  auto epoch = r.i64();
  if (!epoch) return Unexpected(epoch.error());
  out.stability_epoch = epoch.value();
  auto boundary_count = r.u32();
  if (!boundary_count) return Unexpected(boundary_count.error());
  if (boundary_count.value() > Decision::kBoundaryWindow) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  out.boundaries.resize(boundary_count.value());
  for (StabilityBoundary& boundary : out.boundaries) {
    auto subrun = r.i64();
    if (!subrun) return Unexpected(subrun.error());
    boundary.subrun = subrun.value();
    if (auto st = wire::read_seqs32(r, boundary.clean_upto); !st) return st;
    if (boundary.clean_upto.size() != out.alive.size()) {
      return Unexpected(wire::DecodeError::kBadValue);
    }
  }

  // All per-group vectors must agree on n.
  const std::size_t n = out.alive.size();
  if (out.clean_upto.size() != n || out.stable_acc.size() != n ||
      out.heard.size() != n || out.max_processed.size() != n ||
      out.most_updated.size() != n || out.min_waiting.size() != n ||
      out.attempts.size() != n) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  return {};
}

std::vector<std::uint8_t> encode_pdu(const AppMessage& msg) {
  return encode_pdu(msg, msg.payload.view());
}

std::vector<std::uint8_t> encode_pdu(const AppMessage& msg,
                                     std::span<const std::uint8_t> payload) {
  wire::Writer w(1 + encoded_size(msg, payload.size()));
  w.u8(static_cast<std::uint8_t>(PduType::kAppData));
  encode(w, msg, payload);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const Request& rq) {
  wire::Writer w(full_frame_size(rq));
  w.u8(static_cast<std::uint8_t>(PduType::kRequest));
  w.i64(rq.subrun);
  w.i32(rq.from);
  wire::put_seqs32(w, rq.last_processed);
  wire::put_seqs32(w, rq.oldest_waiting);
  encode_decision_body(w, rq.prev_decision);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const Decision& d) {
  wire::Writer w(full_frame_size(d));
  w.u8(static_cast<std::uint8_t>(PduType::kDecision));
  encode_decision_body(w, d);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_request_pdu(const Request& rq,
                                             const Config& config,
                                             bool* was_delta,
                                             const DecisionCache* anchors) {
  if (request_delta_eligible(rq, config)) {
    wire::Writer w(64);
    w.u8(static_cast<std::uint8_t>(PduType::kRequestDelta));
    encode_request_delta_body(w, rq, anchor_digest(rq.prev_decision, anchors));
    if (was_delta != nullptr) *was_delta = true;
    return std::move(w).take();
  }
  if (was_delta != nullptr) *was_delta = false;
  return encode_pdu(rq);
}

std::vector<std::uint8_t> encode_decision_pdu(const Decision& d,
                                              const Decision& anchor,
                                              const Config& config,
                                              bool receivers_hold_anchor,
                                              bool* was_delta,
                                              const DecisionCache* anchors) {
  if (receivers_hold_anchor && decision_delta_eligible(d, anchor, config)) {
    wire::Writer w(64);
    w.u8(static_cast<std::uint8_t>(PduType::kDecisionDelta));
    encode_decision_delta_body(w, d, anchor, anchor_digest(anchor, anchors));
    if (was_delta != nullptr) *was_delta = true;
    return std::move(w).take();
  }
  if (was_delta != nullptr) *was_delta = false;
  return encode_pdu(d);
}

std::vector<std::uint8_t> encode_pdu(const RecoverRq& rq) {
  wire::Writer w(32);
  w.u8(static_cast<std::uint8_t>(PduType::kRecoverRq));
  w.i32(rq.from);
  w.i32(rq.origin);
  w.i64(rq.from_seq);
  w.i64(rq.to_seq);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const ClientRq& rq) {
  wire::Writer w(32 + rq.payload.size());
  w.u8(static_cast<std::uint8_t>(PduType::kClientRq));
  w.i32(rq.from);
  wire::put_mids(w, rq.deps);
  w.bytes(rq.payload);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const JoinRq& rq) {
  wire::Writer w(16);
  w.u8(static_cast<std::uint8_t>(PduType::kJoinRq));
  w.i32(rq.from);
  w.i32(rq.attempt);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const SnapshotRq& rq) {
  wire::Writer w(16);
  w.u8(static_cast<std::uint8_t>(PduType::kSnapshotRq));
  w.i32(rq.from);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_pdu(const SnapshotRsp& rsp) {
  wire::Writer w(32);
  w.u8(static_cast<std::uint8_t>(PduType::kSnapshotRsp));
  w.i32(rsp.from);
  wire::put_seqs32(w, rsp.baseline);
  return std::move(w).take();
}

void encode_recover_rsp_header(wire::Writer& w, const RecoverRsp& rsp,
                               std::size_t count) {
  w.u8(static_cast<std::uint8_t>(PduType::kRecoverRsp));
  w.i32(rsp.from);
  w.i32(rsp.origin);
  w.i64(rsp.to_seq);
  w.u8(rsp.truncated ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(count));
}

std::vector<std::uint8_t> encode_pdu(const RecoverRsp& rsp) {
  wire::Writer w(64);
  encode_recover_rsp_header(w, rsp, rsp.messages.size());
  for (const AppMessage& msg : rsp.messages) encode(w, msg);
  return std::move(w).take();
}

bool is_decision_frame(std::span<const std::uint8_t> bytes) {
  return !bytes.empty() &&
         (bytes[0] == static_cast<std::uint8_t>(PduType::kDecision) ||
          bytes[0] == static_cast<std::uint8_t>(PduType::kDecisionDelta));
}

Status<wire::DecodeError> decode_decision_frame(
    std::span<const std::uint8_t> bytes, DecodeContext* ctx, Decision& out,
    DecisionPatch* patch) {
  if (!is_decision_frame(bytes)) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  wire::Reader r(bytes.subspan(1));
  if (bytes[0] == static_cast<std::uint8_t>(PduType::kDecision)) {
    if (patch != nullptr) patch->delta = false;
    if (auto st = decode_decision_body(r, out); !st) return st;
  } else {
    DecodeContext fallback;
    DecodeContext& c = ctx != nullptr ? *ctx : fallback;
    if (auto st = decode_decision_delta_body(r, c, out, patch); !st) {
      return st;
    }
  }
  return r.finish();
}

namespace {

/// Smallest encoding of one application message: mid (12), an empty dep
/// count (4), generated_at (8) and an empty payload's length (4). Bounds
/// how many messages a RecoverRsp's remaining bytes can hold.
constexpr std::size_t kMinAppMessageBytes = 28;

/// A kRecoverRsp body (after the type byte), through the end of the
/// frame, into `out`, reusing its messages' capacity.
Status<wire::DecodeError> decode_recover_rsp_body(
    wire::Reader& r, const wire::SharedBuffer& owner, RecoverRsp& out) {
  out.messages.clear();
  auto from = r.i32();
  if (!from) return Unexpected(from.error());
  out.from = from.value();
  auto origin = r.i32();
  if (!origin) return Unexpected(origin.error());
  out.origin = origin.value();
  auto to_seq = r.i64();
  if (!to_seq) return Unexpected(to_seq.error());
  out.to_seq = to_seq.value();
  auto truncated = r.u8();
  if (!truncated) return Unexpected(truncated.error());
  out.truncated = truncated.value() != 0;
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  out.messages.reserve(std::min<std::size_t>(
      count.value(), r.remaining() / kMinAppMessageBytes));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto msg = decode_app_message(r, owner);
    if (!msg) return Unexpected(msg.error());
    out.messages.push_back(std::move(msg).value());
  }
  return r.finish();
}

bool carries_app_messages(std::span<const std::uint8_t> bytes) {
  return !bytes.empty() &&
         (bytes[0] == static_cast<std::uint8_t>(PduType::kAppData) ||
          bytes[0] == static_cast<std::uint8_t>(PduType::kRecoverRsp));
}

/// decode_pdu proper. `owner` holds `bytes` whenever the frame carries
/// application messages.
Result<Pdu, wire::DecodeError> decode_frame(std::span<const std::uint8_t> bytes,
                                            const wire::SharedBuffer* owner,
                                            DecodeContext* ctx) {
  wire::Reader r(bytes);
  auto type = r.u8();
  if (!type) return Unexpected(type.error());

  // Every decision that crosses the boundary — full, reconstructed from a
  // delta, or embedded in a REQUEST — becomes a potential anchor for the
  // frames that follow it.
  const auto remember = [ctx](const Decision& d) {
    if (ctx != nullptr && ctx->cache != nullptr) ctx->cache->insert(d);
  };

  switch (static_cast<PduType>(type.value())) {
    case PduType::kAppData: {
      URCGC_ASSERT(owner != nullptr);
      auto msg = decode_app_message(r, *owner);
      if (!msg) return Unexpected(msg.error());
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{std::move(msg).value()};
    }
    case PduType::kRequest: {
      Request rq;
      auto subrun = r.i64();
      if (!subrun) return Unexpected(subrun.error());
      rq.subrun = subrun.value();
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rq.from = from.value();
      auto last_processed = wire::get_seqs32(r);
      if (!last_processed) return Unexpected(last_processed.error());
      rq.last_processed = std::move(last_processed).value();
      auto oldest_waiting = wire::get_seqs32(r);
      if (!oldest_waiting) return Unexpected(oldest_waiting.error());
      rq.oldest_waiting = std::move(oldest_waiting).value();
      // The embed's decided_at leads its body: peek it to choose between
      // a stub (validated in scratch) and a full copy.
      wire::Reader peek = r;
      const auto embedded_at = peek.i64();
      if (embedded_at && ctx != nullptr &&
          ctx->stub_embeds_upto.has_value() &&
          embedded_at.value() <= *ctx->stub_embeds_upto) {
        Decision local;
        Decision& body = ctx->scratch != nullptr ? *ctx->scratch : local;
        if (auto st = decode_decision_body(r, body); !st) {
          return Unexpected(st.error());
        }
        if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
        if (ctx->cache != nullptr) ctx->cache->commit(body);
        rq.prev_decision.decided_at = embedded_at.value();
        return Pdu{std::move(rq)};
      }
      if (auto st = decode_decision_body(r, rq.prev_decision); !st) {
        return Unexpected(st.error());
      }
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      remember(rq.prev_decision);
      return Pdu{std::move(rq)};
    }
    case PduType::kDecision:
    case PduType::kDecisionDelta: {
      Decision d;
      if (auto st = decode_decision_frame(bytes, ctx, d); !st) {
        return Unexpected(st.error());
      }
      remember(d);
      return Pdu{std::move(d)};
    }
    case PduType::kRequestDelta: {
      DecodeContext fallback;
      DecodeContext& c = ctx != nullptr ? *ctx : fallback;
      auto rq = decode_request_delta_body(r, c);
      if (!rq) return Unexpected(rq.error());
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{std::move(rq).value()};
    }
    case PduType::kRecoverRq: {
      RecoverRq rq;
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rq.from = from.value();
      auto origin = r.i32();
      if (!origin) return Unexpected(origin.error());
      rq.origin = origin.value();
      auto from_seq = r.i64();
      if (!from_seq) return Unexpected(from_seq.error());
      rq.from_seq = from_seq.value();
      auto to_seq = r.i64();
      if (!to_seq) return Unexpected(to_seq.error());
      rq.to_seq = to_seq.value();
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{rq};
    }
    case PduType::kRecoverRsp: {
      URCGC_ASSERT(owner != nullptr);
      RecoverRsp rsp;
      if (auto st = decode_recover_rsp_body(r, *owner, rsp); !st) {
        return Unexpected(st.error());
      }
      return Pdu{std::move(rsp)};
    }
    case PduType::kJoinRq: {
      JoinRq rq;
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rq.from = from.value();
      auto attempt = r.i32();
      if (!attempt) return Unexpected(attempt.error());
      rq.attempt = attempt.value();
      if (rq.from < 0 || rq.attempt < 0) {
        return Unexpected(wire::DecodeError::kBadValue);
      }
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{rq};
    }
    case PduType::kSnapshotRq: {
      SnapshotRq rq;
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rq.from = from.value();
      if (rq.from < 0) return Unexpected(wire::DecodeError::kBadValue);
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{rq};
    }
    case PduType::kSnapshotRsp: {
      SnapshotRsp rsp;
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rsp.from = from.value();
      auto baseline = wire::get_seqs32(r);
      if (!baseline) return Unexpected(baseline.error());
      rsp.baseline = std::move(baseline).value();
      if (rsp.from < 0) return Unexpected(wire::DecodeError::kBadValue);
      for (Seq s : rsp.baseline) {
        if (s < kNoSeq) return Unexpected(wire::DecodeError::kBadValue);
      }
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{std::move(rsp)};
    }
    case PduType::kClientRq: {
      ClientRq rq;
      auto from = r.i32();
      if (!from) return Unexpected(from.error());
      rq.from = from.value();
      auto deps = wire::get_mids(r);
      if (!deps) return Unexpected(deps.error());
      rq.deps = std::move(deps).value();
      auto payload = r.bytes();
      if (!payload) return Unexpected(payload.error());
      rq.payload = std::move(payload).value();
      if (auto fin = r.finish(); !fin) return Unexpected(fin.error());
      return Pdu{std::move(rq)};
    }
  }
  return Unexpected(wire::DecodeError::kBadValue);
}

}  // namespace

Result<Pdu, wire::DecodeError> decode_pdu(
    std::span<const std::uint8_t> bytes, DecodeContext* ctx) {
  if (carries_app_messages(bytes)) {
    return decode_pdu(wire::Slice::copy(bytes), ctx);
  }
  return decode_frame(bytes, nullptr, ctx);
}

bool is_recover_rsp_frame(std::span<const std::uint8_t> bytes) {
  return !bytes.empty() &&
         bytes[0] == static_cast<std::uint8_t>(PduType::kRecoverRsp);
}

Status<wire::DecodeError> decode_recover_rsp_frame(const wire::Slice& frame,
                                                   RecoverRsp& out) {
  out.messages.clear();
  if (!is_recover_rsp_frame(frame) || frame.owner().empty()) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  wire::Reader r(frame.view().subspan(1));
  return decode_recover_rsp_body(r, frame.owner(), out);
}

Result<Pdu, wire::DecodeError> decode_pdu(const wire::Slice& frame,
                                          DecodeContext* ctx) {
  if (frame.owner().empty()) return decode_pdu(frame.view(), ctx);
  return decode_frame(frame.view(), &frame.owner(), ctx);
}

}  // namespace urcgc::core
