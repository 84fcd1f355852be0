#pragma once
// Delta-encoded control plane (Config::control_encoding = kDelta).
//
// A delta frame names an anchor decision by (decided_at, digest) and
// carries only the vector entries that changed relative to it; the
// receiver reconstructs the full structure from its DecisionCache copy of
// the anchor. The anchor of a DECISION broadcast is the base decision the
// coordinator computed from; the anchor of a REQUEST is the sender's
// freshest applied decision — which is exactly the decision the request
// embeds, so the embedded copy shrinks to a 16-byte reference and
// last_processed is expressed as overrides against the anchor's
// max_processed. DESIGN.md "Control-plane encoding" specifies the byte
// layout, the anchor rules and the fallback state machine; this header is
// the implementation of that contract.
//
// Fallback discipline: encoders return nullopt whenever any full-snapshot
// trigger fires (unanchorable initial decision, membership change, anchor
// gap beyond the pipeline depth, periodic resync cadence, boundary-window
// evolution the delta grammar cannot express) and the caller sends a full
// frame; decoders report a wire-valid frame whose anchor is not cached
// through DecodeContext::anchor_missed, and the process drops the frame —
// indistinguishable from the datagram having been lost, which the
// protocol already tolerates.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/pdu.hpp"
#include "wire/buffer.hpp"
#include "wire/sparse.hpp"

namespace urcgc::core {

/// FNV-1a over the canonical full encoding of the decision body — the
/// identity that, together with decided_at, names an anchor on the wire.
/// Two decisions decided at the same subrun by partitioned coordinators
/// hash apart, so a receiver can never reconstruct against the wrong
/// same-subrun twin. Streams the bytes encode_decision_body would write
/// into the hash without building them (defined beside it in pdu.cpp).
/// O(n): callers that hold a DecisionCache take the stored digest instead.
[[nodiscard]] std::uint64_t decision_digest(const Decision& d);

/// Fixed ring of the `capacity` most recent distinct decisions, each
/// stored with its digest: everything a process has applied, computed or
/// decoded lately, usable as a delta anchor in either direction. The
/// digest is computed once per distinct decision, at insert; an equal
/// decision inserted again is found by comparison and costs no hash and
/// no copy. Once full, the oldest slot is overwritten — by copy-assignment
/// (insert) or by a swap with the caller's scratch (commit) — so vectors
/// keep their capacity and the ring stops allocating after warm-up. A
/// pointer from find() or commit() is valid only until the next insert or
/// commit — never hold one across it.
class DecisionCache {
 public:
  explicit DecisionCache(std::size_t capacity) : capacity_(capacity) {}

  /// Derives the window from the config: the explicit knob, or
  /// max(8, 2k + 1) so every fault-free anchor hits even at depth k.
  [[nodiscard]] static std::size_t window_for(const Config& config) {
    if (config.delta_cache_window > 0) return config.delta_cache_window;
    const auto k = static_cast<std::size_t>(config.max_subruns_in_flight);
    return std::max<std::size_t>(8, 2 * k + 1);
  }

  /// Stores a copy of `d` (no-op for the initial decision and for a
  /// decision already cached), overwriting the oldest entry when full.
  /// Returns the digest of `d`.
  std::uint64_t insert(const Decision& d);

  /// A decision as the cache holds it, with its digest.
  struct Stored {
    const Decision* decision = nullptr;
    std::uint64_t digest = 0;
  };
  /// Like insert, but moves `d` into the ring instead of copying it: `d`
  /// is swapped with the slot it overwrites, so on return it holds that
  /// slot's former contents (a scratch with capacity) or is empty. When an
  /// equal decision is cached, or `d` is the initial decision, `d` is left
  /// untouched. Returns where the decision now lives (the cached entry, or
  /// `d` itself when nothing was stored).
  Stored commit(Decision& d);

  [[nodiscard]] const Decision* find(SubrunId decided_at,
                                     std::uint64_t digest) const;

  /// The digest of `d`: the stored one when `d` is cached, computed
  /// otherwise.
  [[nodiscard]] std::uint64_t digest_of(const Decision& d) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  friend bool operator==(const DecisionCache&,
                         const DecisionCache&) = default;

 private:
  struct Entry {
    std::uint64_t digest = 0;
    Decision decision;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  /// The entry equal to `d` (same decided_at, then the whole body:
  /// partition twins share decided_at), or nullptr.
  [[nodiscard]] const Entry* find_equal(const Decision& d) const;

  std::vector<Entry> entries_;
  std::size_t capacity_;
  std::size_t oldest_ = 0;  ///< next slot to overwrite once full
};

/// Decode-side context: the receiver's anchor cache plus the out-of-band
/// signal that a wire-valid delta frame referenced an unknown anchor (a
/// different failure class than garbage bytes, which stay DecodeError).
/// Decoded decisions (full frames, reconstructed deltas, and REQUEST
/// embeds) are inserted into `cache` when it is non-null, keeping the
/// receiver anchored for subsequent frames.
struct DecodeContext {
  DecisionCache* cache = nullptr;
  bool anchor_missed = false;
  /// REQUEST and REQUEST_DELTA embeds decided at or before this subrun are
  /// decoded as stubs: every byte is still validated, and a full embed
  /// still reaches `cache`, but the Request keeps only decided_at. A
  /// receiver passes its latest decided_at: an embed no fresher than its
  /// own decision can never become a coordinator base (freshest() keeps
  /// the receiver's own copy on ties), so its body would only be copied
  /// to be thrown away.
  std::optional<SubrunId> stub_embeds_upto;
  /// Where a stubbed full embed is decoded (a local when null): a reused
  /// scratch keeps its vectors' capacity. Its contents are unspecified
  /// after a decode.
  Decision* scratch = nullptr;
};

/// What a DECISION_DELTA frame changed relative to its anchor: the
/// anchor's identity, per vector section the indexes the frame overrode
/// (ascending; each entry differs from the anchor's), and the boundary
/// window's drop and append counts. Holding the anchor and the decoded
/// decision, a receiver turns its own copy of the anchor into the decoded
/// decision in O(changed) with apply_patch. `delta` is false after a full
/// frame, which names no anchor.
struct DecisionPatch {
  enum Section : std::uint8_t {
    kCleanUpto,
    kStableAcc,
    kHeard,
    kMaxProcessed,
    kMostUpdated,
    kMinWaiting,
    kAttempts,
    kAlive,
    kSections,
  };
  bool delta = false;
  SubrunId anchor_at = -1;
  std::uint64_t anchor_digest = 0;
  /// Every section's indexes back to back; section s is
  /// [starts[s], starts[s + 1]). One buffer, so recording them stays cheap.
  std::vector<std::uint16_t> indexes;
  std::array<std::uint32_t, kSections + 1> starts{};
  std::uint8_t drop = 0;
  std::uint8_t append = 0;

  [[nodiscard]] std::span<const std::uint16_t> of(Section s) const {
    return std::span<const std::uint16_t>(indexes)
        .subspan(starts[s], starts[s + 1] - starts[s]);
  }
};

/// Turns `target`, equal to the anchor `patch` was decoded against, into
/// `d`, the decision decoded from it, copying only what the frame changed.
void apply_patch(Decision& target, const Decision& d,
                 const DecisionPatch& patch);

/// True when `d` may be delta-encoded against `anchor` under `config` —
/// i.e. no full-snapshot trigger fires. Callers must send a full frame
/// when this returns false.
[[nodiscard]] bool decision_delta_eligible(const Decision& d,
                                           const Decision& anchor,
                                           const Config& config);

/// Appends the delta body of `d` against `anchor`, whose digest is
/// `anchor_digest` (anchor reference included; PDU type byte excluded).
/// Precondition: decision_delta_eligible(d, anchor, config).
void encode_decision_delta_body(wire::Writer& w, const Decision& d,
                                const Decision& anchor,
                                std::uint64_t anchor_digest);

/// Reads a delta decision body into `out`: the cached anchor is assigned
/// into it and the changed entries are patched in place; `patch`, when
/// non-null, receives what changed. A wire-valid frame whose anchor is
/// absent from `ctx.cache` fails with kBadValue and ctx.anchor_missed =
/// true. On error `out` and `patch` hold a partial decode.
[[nodiscard]] Status<wire::DecodeError> decode_decision_delta_body(
    wire::Reader& r, DecodeContext& ctx, Decision& out,
    DecisionPatch* patch = nullptr);

/// REQUEST delta eligibility: the embedded prev_decision must be a usable
/// anchor (same triggers as above minus the membership check — a REQUEST
/// never changes membership relative to its own embed, which it equals).
[[nodiscard]] bool request_delta_eligible(const Request& rq,
                                          const Config& config);
/// The same rule for a request of `subrun` whose embed is decided at
/// `anchor_decided_at` and whose report vectors are `n` wide (the embed's
/// width).
[[nodiscard]] bool request_delta_eligible(SubrunId anchor_decided_at,
                                          SubrunId subrun, int n,
                                          const Config& config);

/// Appends the delta body of `rq` (fields after the PDU type byte):
/// subrun, sender, anchor reference standing in for the embedded
/// prev_decision (whose digest is `anchor_digest`), last_processed as
/// overrides against the anchor's max_processed, and oldest_waiting as
/// overrides against all-kNoSeq.
void encode_request_delta_body(wire::Writer& w, const Request& rq,
                               std::uint64_t anchor_digest);

/// The same body from the overrides alone, in O(overrides):
/// `processed` lists (j, last_processed[j]) wherever last_processed
/// differs from the anchor's max_processed, and `waiting` lists (j,
/// oldest_waiting[j]) wherever something waits, both in index order. For
/// overrides taken from a Request the bytes equal
/// encode_request_delta_body's.
void encode_request_delta_body(wire::Writer& w, SubrunId subrun,
                               ProcessId from, SubrunId anchor_decided_at,
                               std::uint64_t anchor_digest,
                               std::span<const wire::SeqOverride> processed,
                               std::span<const wire::SeqOverride> waiting);

[[nodiscard]] Result<Request, wire::DecodeError> decode_request_delta_body(
    wire::Reader& r, DecodeContext& ctx);

}  // namespace urcgc::core
