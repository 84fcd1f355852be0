#pragma once
// Codec helpers layered on Writer/Reader: Mid, sequence vectors and other
// aggregates shared by several PDUs.

#include <span>
#include <vector>

#include "common/types.hpp"
#include "wire/buffer.hpp"

namespace urcgc::wire {

inline void put_mid(Writer& w, const Mid& mid) {
  w.i32(mid.origin);
  w.i64(mid.seq);
}

[[nodiscard]] inline Result<Mid, DecodeError> get_mid(Reader& r) {
  auto origin = r.i32();
  if (!origin) return Unexpected(origin.error());
  auto seq = r.i64();
  if (!seq) return Unexpected(seq.error());
  return Mid{origin.value(), seq.value()};
}

inline void put_mids(Writer& w, std::span<const Mid> mids) {
  w.u32(static_cast<std::uint32_t>(mids.size()));
  for (const auto& mid : mids) put_mid(w, mid);
}

/// Decodes a put_mids list into `out` (a std::vector or a SmallVec),
/// reusing its storage.
template <typename Mids>
[[nodiscard]] inline Status<DecodeError> read_mids(Reader& r, Mids& out) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  // Each Mid costs 12 bytes on the wire; reject counts the buffer cannot hold
  // before allocating (defends against hostile length prefixes).
  if (count.value() * 12ULL > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  out.clear();
  out.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    out.push_back(get_mid(r).value());
  }
  return {};
}

[[nodiscard]] inline Result<std::vector<Mid>, DecodeError> get_mids(Reader& r) {
  std::vector<Mid> mids;
  if (auto st = read_mids(r, mids); !st) return Unexpected(st.error());
  return mids;
}

inline void put_seqs(Writer& w, const std::vector<Seq>& seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (Seq s : seqs) w.i64(s);
}

[[nodiscard]] inline Result<std::vector<Seq>, DecodeError> get_seqs(Reader& r) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  if (count.value() * 8ULL > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  std::vector<Seq> seqs;
  seqs.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto s = r.i64();
    if (!s) return Unexpected(s.error());
    seqs.push_back(s.value());
  }
  return seqs;
}

/// Compact sequence vector: u32 per entry. Protocol sequence numbers are
/// per-originator counters that stay far below 2^32 in any realistic run;
/// the in-memory type stays 64-bit. Like the other put_* helpers of the
/// decision body, it writes to any Writer-shaped sink (Fnv1aSink digests
/// the same bytes without storing them).
template <typename Sink>
inline void put_seqs32(Sink& w, const std::vector<Seq>& seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (Seq s : seqs) w.u32(static_cast<std::uint32_t>(s));
}

/// Decodes a put_seqs32 vector into `out`, reusing its capacity.
[[nodiscard]] inline Status<DecodeError> read_seqs32(Reader& r,
                                                     std::vector<Seq>& out) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  if (count.value() * 4ULL > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  out.resize(count.value());
  for (Seq& s : out) s = static_cast<Seq>(r.u32().value());
  return {};
}

[[nodiscard]] inline Result<std::vector<Seq>, DecodeError> get_seqs32(
    Reader& r) {
  std::vector<Seq> seqs;
  if (auto st = read_seqs32(r, seqs); !st) return Unexpected(st.error());
  return seqs;
}

template <typename Sink>
inline void put_u8s(Sink& w, const std::vector<std::uint8_t>& values) {
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (std::uint8_t v : values) w.u8(v);
}

/// Decodes a put_u8s vector into `out`, reusing its capacity.
[[nodiscard]] inline Status<DecodeError> read_u8s(
    Reader& r, std::vector<std::uint8_t>& out) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  if (count.value() > r.remaining()) {
    return Unexpected(DecodeError::kTruncated);
  }
  out.resize(count.value());
  for (std::uint8_t& v : out) v = r.u8().value();
  return {};
}

[[nodiscard]] inline Result<std::vector<std::uint8_t>, DecodeError> get_u8s(
    Reader& r) {
  std::vector<std::uint8_t> values;
  if (auto st = read_u8s(r, values); !st) return Unexpected(st.error());
  return values;
}

template <typename Sink>
inline void put_bools(Sink& w, const std::vector<bool>& values) {
  // Bit-packed: matches the paper's per-process state bitmaps.
  w.u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t acc = 0;
  int bit = 0;
  for (bool v : values) {
    if (v) acc = static_cast<std::uint8_t>(acc | (1u << bit));
    if (++bit == 8) {
      w.u8(acc);
      acc = 0;
      bit = 0;
    }
  }
  if (bit != 0) w.u8(acc);
}

/// Decodes a put_bools bitmap into `out`, reusing its capacity.
[[nodiscard]] inline Status<DecodeError> read_bools(Reader& r,
                                                    std::vector<bool>& out) {
  auto count = r.u32();
  if (!count) return Unexpected(count.error());
  // Widen before rounding up: in 32-bit arithmetic a hostile count near
  // 2^32 wraps (count + 7) to a tiny value, defeating the truncation guard
  // and reserving gigabytes below. The other read_* pre-checks multiply by
  // a ULL element size, which already promotes to 64 bits.
  const std::uint64_t nbytes =
      (static_cast<std::uint64_t>(count.value()) + 7) / 8;
  if (nbytes > r.remaining()) return Unexpected(DecodeError::kTruncated);
  out.resize(count.value());
  std::uint8_t acc = 0;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    if (i % 8 == 0) acc = r.u8().value();
    out[i] = ((acc >> (i % 8)) & 1u) != 0;
  }
  return {};
}

[[nodiscard]] inline Result<std::vector<bool>, DecodeError> get_bools(
    Reader& r) {
  std::vector<bool> values;
  if (auto st = read_bools(r, values); !st) return Unexpected(st.error());
  return values;
}

}  // namespace urcgc::wire
