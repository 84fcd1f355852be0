#include "core/delta.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "wire/codec.hpp"
#include "wire/sparse.hpp"

namespace urcgc::core {

std::uint64_t DecisionCache::insert(const Decision& d) {
  if (capacity_ == 0 || d.decided_at < 0) return decision_digest(d);
  if (const Entry* e = find_equal(d)) return e->digest;
  const std::uint64_t digest = decision_digest(d);
  if (entries_.size() < capacity_) {
    // Sized on first use: a process under full encoding never inserts.
    if (entries_.empty()) entries_.reserve(capacity_);
    entries_.push_back(Entry{digest, d});
    return digest;
  }
  Entry& slot = entries_[oldest_];
  slot.digest = digest;
  slot.decision = d;
  oldest_ = (oldest_ + 1) % capacity_;
  return digest;
}

DecisionCache::Stored DecisionCache::commit(Decision& d) {
  if (capacity_ == 0 || d.decided_at < 0) return {&d, decision_digest(d)};
  if (const Entry* e = find_equal(d)) return {&e->decision, e->digest};
  const std::uint64_t digest = decision_digest(d);
  if (entries_.size() < capacity_) {
    if (entries_.empty()) entries_.reserve(capacity_);
    entries_.push_back(Entry{digest, std::move(d)});
    d = Decision{};
    return {&entries_.back().decision, digest};
  }
  Entry& slot = entries_[oldest_];
  slot.digest = digest;
  std::swap(slot.decision, d);
  oldest_ = (oldest_ + 1) % capacity_;
  return {&slot.decision, digest};
}

const Decision* DecisionCache::find(SubrunId decided_at,
                                    std::uint64_t digest) const {
  for (const Entry& e : entries_) {
    if (e.decision.decided_at == decided_at && e.digest == digest) {
      return &e.decision;
    }
  }
  return nullptr;
}

std::uint64_t DecisionCache::digest_of(const Decision& d) const {
  const Entry* e = find_equal(d);
  return e != nullptr ? e->digest : decision_digest(d);
}

const DecisionCache::Entry* DecisionCache::find_equal(
    const Decision& d) const {
  for (const Entry& e : entries_) {
    if (e.decision == d) return &e;  // decided_at compares first
  }
  return nullptr;
}

namespace {

constexpr std::uint16_t kNoProcessWire = 0xFFFF;
constexpr std::uint8_t kFlagFullGroup = 0x01;

/// Boundary-window evolution from `anchor` to `d`: the new window must be
/// the anchor's with `drop` entries removed from the front and the rest
/// kept verbatim as its prefix; returns false when the windows diverged
/// some other way (a chain jump) and the frame must be a full snapshot.
bool boundary_evolution(const Decision& d, const Decision& anchor,
                        std::size_t& drop, std::size_t& append) {
  const auto& a = anchor.boundaries;
  const auto& b = d.boundaries;
  for (drop = 0; drop <= a.size(); ++drop) {
    const std::size_t kept = a.size() - drop;
    if (kept > b.size()) continue;
    if (std::equal(a.begin() + static_cast<std::ptrdiff_t>(drop), a.end(),
                   b.begin())) {
      append = b.size() - kept;
      return true;
    }
  }
  return false;
}

/// Full-snapshot triggers shared by both control frames (DESIGN.md
/// "anchor rules"): an unanchorable initial decision, the periodic resync
/// cadence, and groups too large for u16 sparse indices.
bool common_delta_eligible(SubrunId anchor_decided_at, SubrunId frame_subrun,
                           int n, const Config& config) {
  if (config.control_encoding != ControlEncoding::kDelta) return false;
  if (anchor_decided_at < 0) return false;
  if (config.delta_snapshot_every <= 1) return false;
  if (frame_subrun % config.delta_snapshot_every == 0) return false;
  if (static_cast<std::size_t>(n) > wire::kSparseMaxIndex) return false;
  return true;
}

}  // namespace

bool decision_delta_eligible(const Decision& d, const Decision& anchor,
                             const Config& config) {
  if (!common_delta_eligible(anchor.decided_at, d.decided_at, d.n(), config)) {
    return false;
  }
  if (d.decided_at <= anchor.decided_at) return false;
  if (d.n() != anchor.n()) return false;
  // Membership changes always resync: a join-after-cut or a freshly cut
  // member must not depend on having the pre-change chain cached.
  if (d.alive != anchor.alive) return false;
  // Anchor gap beyond the pipeline depth means the chain jumped (e.g. a
  // coordinator recovering from a partition) — receivers are unlikely to
  // hold the anchor, so spend the snapshot now instead of a likely miss.
  if (d.decided_at - anchor.decided_at >
      static_cast<SubrunId>(config.max_subruns_in_flight)) {
    return false;
  }
  std::size_t drop = 0;
  std::size_t append = 0;
  if (!boundary_evolution(d, anchor, drop, append)) return false;
  return true;
}

void encode_decision_delta_body(wire::Writer& w, const Decision& d,
                                const Decision& anchor,
                                std::uint64_t anchor_digest) {
  URCGC_ASSERT(d.n() == anchor.n());
  w.i64(anchor.decided_at);
  w.u64(anchor_digest);
  w.i64(d.decided_at);
  w.u16(d.coordinator == kNoProcess
            ? kNoProcessWire
            : static_cast<std::uint16_t>(d.coordinator));
  w.u8(d.full_group ? kFlagFullGroup : 0);
  wire::put_sparse_seqs(w, d.clean_upto, anchor.clean_upto);
  wire::put_sparse_seqs(w, d.stable_acc, anchor.stable_acc);
  wire::put_sparse_flips(w, d.heard, anchor.heard);
  wire::put_sparse_seqs(w, d.max_processed, anchor.max_processed);
  wire::put_sparse_pids(w, d.most_updated, anchor.most_updated);
  wire::put_sparse_seqs(w, d.min_waiting, anchor.min_waiting);
  wire::put_sparse_u8s(w, d.attempts, anchor.attempts);
  wire::put_sparse_flips(w, d.alive, anchor.alive);
  w.i64(d.stability_epoch);
  std::size_t drop = 0;
  std::size_t append = 0;
  const bool expressible = boundary_evolution(d, anchor, drop, append);
  URCGC_ASSERT_MSG(expressible, "caller must check decision_delta_eligible");
  w.u8(static_cast<std::uint8_t>(drop));
  w.u8(static_cast<std::uint8_t>(append));
  for (std::size_t i = d.boundaries.size() - append; i < d.boundaries.size();
       ++i) {
    w.i64(d.boundaries[i].subrun);
    wire::put_seqs32(w, d.boundaries[i].clean_upto);
  }
}

void apply_patch(Decision& target, const Decision& d,
                 const DecisionPatch& patch) {
  URCGC_ASSERT(patch.delta && target.n() == d.n());
  using P = DecisionPatch;
  target.decided_at = d.decided_at;
  target.coordinator = d.coordinator;
  target.full_group = d.full_group;
  target.stability_epoch = d.stability_epoch;
  const auto copy = [&](auto member, P::Section section) {
    auto& to = target.*member;
    const auto& from = d.*member;
    for (const std::uint16_t i : patch.of(section)) to[i] = from[i];
  };
  copy(&Decision::clean_upto, P::kCleanUpto);
  copy(&Decision::stable_acc, P::kStableAcc);
  copy(&Decision::heard, P::kHeard);
  copy(&Decision::max_processed, P::kMaxProcessed);
  copy(&Decision::most_updated, P::kMostUpdated);
  copy(&Decision::min_waiting, P::kMinWaiting);
  copy(&Decision::attempts, P::kAttempts);
  copy(&Decision::alive, P::kAlive);
  // The boundary window moves exactly as the decoder moved its copy of
  // the anchor; only the appended boundaries carry new contents.
  auto& window = target.boundaries;
  std::rotate(window.begin(),
              window.begin() + static_cast<std::ptrdiff_t>(patch.drop),
              window.end());
  window.resize(d.boundaries.size());
  for (std::size_t i = window.size() - patch.append; i < window.size(); ++i) {
    window[i] = d.boundaries[i];
  }
}

Status<wire::DecodeError> decode_decision_delta_body(wire::Reader& r,
                                                     DecodeContext& ctx,
                                                     Decision& out,
                                                     DecisionPatch* patch) {
  auto anchor_subrun = r.i64();
  if (!anchor_subrun) return Unexpected(anchor_subrun.error());
  auto anchor_digest = r.u64();
  if (!anchor_digest) return Unexpected(anchor_digest.error());
  const Decision* anchor =
      ctx.cache == nullptr
          ? nullptr
          : ctx.cache->find(anchor_subrun.value(), anchor_digest.value());
  if (anchor == nullptr) {
    // The frame may be perfectly well-formed; we simply lack the baseline
    // to expand it. Signal the caller to treat it as an omission, not as
    // wire garbage.
    ctx.anchor_missed = true;
    return Unexpected(wire::DecodeError::kBadValue);
  }
  // From here on only `out` is read: the anchor pointer is not held past
  // this copy.
  out = *anchor;
  // Each section appends its indexes to patch->indexes and closes its
  // range in patch->starts.
  std::vector<std::uint16_t>* const indexes =
      patch != nullptr ? &patch->indexes : nullptr;
  const auto touched = [patch, indexes](DecisionPatch::Section section) {
    if (patch != nullptr) {
      patch->starts[section] = static_cast<std::uint32_t>(indexes->size());
    }
    return indexes;
  };
  if (patch != nullptr) {
    patch->delta = true;
    patch->anchor_at = anchor_subrun.value();
    patch->anchor_digest = anchor_digest.value();
    patch->indexes.clear();
  }

  auto decided_at = r.i64();
  if (!decided_at) return Unexpected(decided_at.error());
  if (decided_at.value() <= out.decided_at) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  out.decided_at = decided_at.value();
  auto coordinator = r.u16();
  if (!coordinator) return Unexpected(coordinator.error());
  out.coordinator = coordinator.value() == kNoProcessWire
                        ? kNoProcess
                        : static_cast<ProcessId>(coordinator.value());
  auto flags = r.u8();
  if (!flags) return Unexpected(flags.error());
  if ((flags.value() & ~kFlagFullGroup) != 0) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  out.full_group = (flags.value() & kFlagFullGroup) != 0;

  using P = DecisionPatch;
  if (auto st = wire::patch_sparse_seqs(r, out.clean_upto,
                                        touched(P::kCleanUpto));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_seqs(r, out.stable_acc,
                                        touched(P::kStableAcc));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_flips(r, out.heard, touched(P::kHeard));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_seqs(r, out.max_processed,
                                        touched(P::kMaxProcessed));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_pids(r, out.most_updated,
                                        touched(P::kMostUpdated));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_seqs(r, out.min_waiting,
                                        touched(P::kMinWaiting));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_u8s(r, out.attempts, touched(P::kAttempts));
      !st) {
    return st;
  }
  if (auto st = wire::patch_sparse_flips(r, out.alive, touched(P::kAlive));
      !st) {
    return st;
  }
  if (patch != nullptr) {
    patch->starts[P::kSections] =
        static_cast<std::uint32_t>(patch->indexes.size());
  }
  auto epoch = r.i64();
  if (!epoch) return Unexpected(epoch.error());
  out.stability_epoch = epoch.value();

  auto drop = r.u8();
  if (!drop) return Unexpected(drop.error());
  auto append = r.u8();
  if (!append) return Unexpected(append.error());
  if (drop.value() > out.boundaries.size()) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  const std::size_t kept = out.boundaries.size() - drop.value();
  if (kept + append.value() > Decision::kBoundaryWindow) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  if (patch != nullptr) {
    patch->drop = drop.value();
    patch->append = append.value();
  }
  // Rotate the dropped boundaries to the back, where the appended ones
  // are read into them and reuse their buffers.
  std::rotate(
      out.boundaries.begin(),
      out.boundaries.begin() + static_cast<std::ptrdiff_t>(drop.value()),
      out.boundaries.end());
  out.boundaries.resize(kept + append.value());
  for (std::size_t i = kept; i < out.boundaries.size(); ++i) {
    StabilityBoundary& boundary = out.boundaries[i];
    auto subrun = r.i64();
    if (!subrun) return Unexpected(subrun.error());
    boundary.subrun = subrun.value();
    if (auto st = wire::read_seqs32(r, boundary.clean_upto); !st) return st;
    if (boundary.clean_upto.size() != out.alive.size()) {
      return Unexpected(wire::DecodeError::kBadValue);
    }
  }
  return {};
}

bool request_delta_eligible(const Request& rq, const Config& config) {
  return rq.last_processed.size() == rq.prev_decision.max_processed.size() &&
         rq.oldest_waiting.size() == rq.last_processed.size() &&
         request_delta_eligible(rq.prev_decision.decided_at, rq.subrun,
                                rq.prev_decision.n(), config);
}

bool request_delta_eligible(SubrunId anchor_decided_at, SubrunId subrun,
                            int n, const Config& config) {
  if (!common_delta_eligible(anchor_decided_at, subrun, n, config)) {
    return false;
  }
  // A sender lagging the subrun it reports into by more than the pipeline
  // depth has missed decisions — its own anchor may have fallen out of
  // the coordinator's cache window, so a delta would likely cost the
  // whole request (one spurious attempt charged against the sender). The
  // full frame both survives the eviction and shows the coordinator the
  // stale embed, prompting the full-snapshot decision that resyncs us.
  return subrun - anchor_decided_at <=
         static_cast<SubrunId>(config.max_subruns_in_flight) + 1;
}

namespace {

void put_request_delta_head(wire::Writer& w, SubrunId subrun, ProcessId from,
                            SubrunId anchor_decided_at,
                            std::uint64_t anchor_digest) {
  w.i64(subrun);
  w.u16(from == kNoProcess ? kNoProcessWire : static_cast<std::uint16_t>(from));
  w.i64(anchor_decided_at);
  w.u64(anchor_digest);
}

}  // namespace

void encode_request_delta_body(wire::Writer& w, const Request& rq,
                               std::uint64_t anchor_digest) {
  const Decision& anchor = rq.prev_decision;
  put_request_delta_head(w, rq.subrun, rq.from, anchor.decided_at,
                         anchor_digest);
  // The sender's processed prefixes track the group maximum the anchor
  // advertises except where traffic moved since — overrides stay O(active
  // senders), not O(n).
  wire::put_sparse_seqs(w, rq.last_processed, anchor.max_processed);
  wire::put_sparse_seqs(w, rq.oldest_waiting, kNoSeq);
}

void encode_request_delta_body(wire::Writer& w, SubrunId subrun,
                               ProcessId from, SubrunId anchor_decided_at,
                               std::uint64_t anchor_digest,
                               std::span<const wire::SeqOverride> processed,
                               std::span<const wire::SeqOverride> waiting) {
  put_request_delta_head(w, subrun, from, anchor_decided_at, anchor_digest);
  wire::put_seq_overrides(w, processed);
  wire::put_seq_overrides(w, waiting);
}

Result<Request, wire::DecodeError> decode_request_delta_body(
    wire::Reader& r, DecodeContext& ctx) {
  Request rq;
  auto subrun = r.i64();
  if (!subrun) return Unexpected(subrun.error());
  rq.subrun = subrun.value();
  auto from = r.u16();
  if (!from) return Unexpected(from.error());
  if (from.value() == kNoProcessWire) {
    return Unexpected(wire::DecodeError::kBadValue);
  }
  rq.from = static_cast<ProcessId>(from.value());
  auto anchor_subrun = r.i64();
  if (!anchor_subrun) return Unexpected(anchor_subrun.error());
  auto anchor_digest = r.u64();
  if (!anchor_digest) return Unexpected(anchor_digest.error());
  const Decision* anchor =
      ctx.cache == nullptr
          ? nullptr
          : ctx.cache->find(anchor_subrun.value(), anchor_digest.value());
  if (anchor == nullptr) {
    // Without the anchor neither the embedded decision nor last_processed
    // (encoded against it) can be reconstructed — the whole REQUEST is
    // dropped upstream, equivalent to one more omission.
    ctx.anchor_missed = true;
    return Unexpected(wire::DecodeError::kBadValue);
  }
  if (ctx.stub_embeds_upto.has_value() &&
      anchor->decided_at <= *ctx.stub_embeds_upto) {
    rq.prev_decision.decided_at = anchor->decided_at;
  } else {
    rq.prev_decision = *anchor;
  }
  rq.last_processed = anchor->max_processed;
  if (auto st = wire::patch_sparse_seqs(r, rq.last_processed); !st) {
    return Unexpected(st.error());
  }
  rq.oldest_waiting.assign(rq.last_processed.size(), kNoSeq);
  if (auto st = wire::patch_sparse_seqs(r, rq.oldest_waiting); !st) {
    return Unexpected(st.error());
  }
  return rq;
}

}  // namespace urcgc::core
