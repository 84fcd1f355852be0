#pragma once
// Sparse-vector codec: per-group control vectors encoded as overrides
// against a baseline vector both peers already hold (DESIGN.md
// "Control-plane encoding"). Each section is a u16 entry count followed by
// (u16 index, payload) pairs whose indices are strictly increasing — the
// canonical form; decoders reject duplicates and disorder as kBadValue so
// a frame has exactly one valid encoding. Decoders patch the receiver's
// copy of the baseline in place, so a reused vector keeps its capacity;
// like codec.hpp, each one pre-checks the count against remaining()
// before reading, defending against hostile length prefixes.

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "wire/buffer.hpp"

namespace urcgc::wire {

/// Indices travel as u16: group sizes stay far below 65535 (pdu.cpp makes
/// the same argument for process ids).
inline constexpr std::size_t kSparseMaxIndex = 0xFFFF;

/// Writes one sparse section: the u16 count of entries where `v` differs
/// from `base_at(i)`, then each such index followed by `put_value(v[i])`.
template <typename V, typename BaseAt, typename PutValue>
inline void put_sparse(Writer& w, const V& v, BaseAt base_at,
                       PutValue put_value) {
  URCGC_ASSERT(v.size() <= kSparseMaxIndex);
  std::uint16_t count = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != base_at(i)) ++count;
  }
  w.u16(count);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == base_at(i)) continue;
    w.u16(static_cast<std::uint16_t>(i));
    put_value(v[i]);
  }
}

/// Reads one sparse section and applies it to `v` in place (`v` holds the
/// baseline on entry). `entry_bytes` is the wire size of one (index,
/// payload) pair; `apply(r, i)` reads the payload of index i into v[i].
/// `touched`, when non-null, has the patched indexes appended in order.
/// On error `v` is partially patched — callers decode into scratch.
template <typename V, typename Apply>
[[nodiscard]] inline Status<DecodeError> patch_sparse(
    Reader& r, V& v, std::size_t entry_bytes, Apply apply,
    std::vector<std::uint16_t>* touched = nullptr) {
  auto count = r.u16();
  if (!count) return Unexpected(count.error());
  if (count.value() * static_cast<std::uint64_t>(entry_bytes) >
      r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  std::int64_t prev = -1;
  for (std::uint16_t i = 0; i < count.value(); ++i) {
    const std::uint16_t idx = r.u16().value();
    if (idx >= v.size() || idx <= prev) {
      return Unexpected(DecodeError::kBadValue);
    }
    prev = idx;
    apply(r, idx);
    if (touched != nullptr) touched->push_back(idx);
  }
  return {};
}

/// Seq overrides: (u16 index, u32 seq) per entry where `v` differs from
/// `base`. Sequence numbers use the same u32 wire width as put_seqs32.
inline void put_sparse_seqs(Writer& w, const std::vector<Seq>& v,
                            const std::vector<Seq>& base) {
  URCGC_ASSERT(v.size() == base.size());
  put_sparse(w, v, [&](std::size_t i) { return base[i]; },
             [&](Seq s) { w.u32(static_cast<std::uint32_t>(s)); });
}

/// The same section against a baseline whose every entry is `fill`.
inline void put_sparse_seqs(Writer& w, const std::vector<Seq>& v, Seq fill) {
  put_sparse(w, v, [fill](std::size_t) { return fill; },
             [&](Seq s) { w.u32(static_cast<std::uint32_t>(s)); });
}

/// One entry of a seq section built by the caller: what put_sparse_seqs
/// would write for index `index`, when the caller already knows which
/// indexes differ from the baseline.
struct SeqOverride {
  std::uint16_t index = 0;
  Seq seq = kNoSeq;
};

/// Writes a seq section from precomputed overrides (strictly increasing
/// indexes): byte-identical to put_sparse_seqs over the full vectors they
/// were taken from, in O(overrides).
inline void put_seq_overrides(Writer& w, std::span<const SeqOverride> v) {
  URCGC_ASSERT(v.size() <= kSparseMaxIndex);
  w.u16(static_cast<std::uint16_t>(v.size()));
  for (const SeqOverride& o : v) {
    w.u16(o.index);
    w.u32(static_cast<std::uint32_t>(o.seq));
  }
}

[[nodiscard]] inline Status<DecodeError> patch_sparse_seqs(
    Reader& r, std::vector<Seq>& v,
    std::vector<std::uint16_t>* touched = nullptr) {
  return patch_sparse(
      r, v, 6,
      [&v](Reader& in, std::size_t i) {
        v[i] = static_cast<Seq>(in.u32().value());
      },
      touched);
}

/// Bool flip list: u16 indices where `v` differs from `base` (flipping the
/// baseline bit reconstructs the value, so no payload is needed).
inline void put_sparse_flips(Writer& w, const std::vector<bool>& v,
                             const std::vector<bool>& base) {
  URCGC_ASSERT(v.size() == base.size());
  put_sparse(w, v, [&](std::size_t i) { return base[i]; }, [](bool) {});
}

[[nodiscard]] inline Status<DecodeError> patch_sparse_flips(
    Reader& r, std::vector<bool>& v,
    std::vector<std::uint16_t>* touched = nullptr) {
  return patch_sparse(
      r, v, 2, [&v](Reader&, std::size_t i) { v[i] = !v[i]; }, touched);
}

/// u8 overrides: (u16 index, u8 value) — the attempts counters.
inline void put_sparse_u8s(Writer& w, const std::vector<std::uint8_t>& v,
                           const std::vector<std::uint8_t>& base) {
  URCGC_ASSERT(v.size() == base.size());
  put_sparse(w, v, [&](std::size_t i) { return base[i]; },
             [&](std::uint8_t value) { w.u8(value); });
}

[[nodiscard]] inline Status<DecodeError> patch_sparse_u8s(
    Reader& r, std::vector<std::uint8_t>& v,
    std::vector<std::uint16_t>* touched = nullptr) {
  return patch_sparse(
      r, v, 3,
      [&v](Reader& in, std::size_t i) { v[i] = in.u8().value(); }, touched);
}

/// ProcessId overrides: (u16 index, u16 pid) with pdu.cpp's 0xFFFF =
/// kNoProcess sentinel — the most_updated vector.
inline void put_sparse_pids(Writer& w, const std::vector<ProcessId>& v,
                            const std::vector<ProcessId>& base) {
  URCGC_ASSERT(v.size() == base.size());
  put_sparse(w, v, [&](std::size_t i) { return base[i]; },
             [&](ProcessId p) {
               w.u16(p == kNoProcess ? 0xFFFF : static_cast<std::uint16_t>(p));
             });
}

[[nodiscard]] inline Status<DecodeError> patch_sparse_pids(
    Reader& r, std::vector<ProcessId>& v,
    std::vector<std::uint16_t>* touched = nullptr) {
  return patch_sparse(
      r, v, 4,
      [&v](Reader& in, std::size_t i) {
        const std::uint16_t pid = in.u16().value();
        v[i] = pid == 0xFFFF ? kNoProcess : static_cast<ProcessId>(pid);
      },
      touched);
}

}  // namespace urcgc::wire
