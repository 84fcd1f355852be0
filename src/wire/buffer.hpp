#pragma once
// Wire-format encode/decode buffers.
//
// All protocol data units (application messages, REQUEST/DECISION control
// messages, recovery PDUs) are serialized through these buffers with
// explicit big-endian (network order) fixed-width fields. Sizes reported in
// the Table 1 reproduction are byte counts of these encodings — nothing is
// estimated.
//
// Writer never fails (grows its vector); Reader is bounds-checked and
// reports malformed input through DecodeError rather than UB.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace urcgc::wire {

class Writer {
 public:
  Writer() = default;
  /// Pre-sizes the buffer: writing up to `reserve` bytes never reallocates.
  explicit Writer(std::size_t reserve) : bytes_(reserve) {}

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { put_be<2>(v); }
  void u32(std::uint32_t v) { put_be<4>(v); }
  void u64(std::uint64_t v) { put_be<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw byte string.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {bytes_.data(), size_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    bytes_.resize(size_);  // shrinking keeps the allocation
    return std::move(bytes_);
  }

 private:
  /// Claims the next `n` bytes: one capacity check per value, and the
  /// buffer doubles when it runs out.
  std::uint8_t* grow(std::size_t n) {
    if (bytes_.size() - size_ < n) {
      bytes_.resize(std::max(2 * bytes_.size(), size_ + n));
    }
    std::uint8_t* at = bytes_.data() + size_;
    size_ += n;
    return at;
  }

  /// Appends the low N bytes of `v`, most significant first.
  template <std::size_t N>
  void put_be(std::uint64_t v) {
    std::uint8_t* out = grow(N);
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
    }
  }

  std::vector<std::uint8_t> bytes_;  ///< [0, size_) written, then headroom
  std::size_t size_ = 0;
};

/// Writer-shaped sink that folds the bytes a Writer would append into a
/// 64-bit FNV-1a hash instead of storing them: a canonical encoding
/// written through it is digested without being materialized.
class Fnv1aSink {
 public:
  void u8(std::uint8_t v) { hash_ = (hash_ ^ v) * kPrime; }
  void u16(std::uint16_t v) { put_be<2>(v); }
  void u32(std::uint32_t v) {
    // A zero byte only multiplies the hash by the prime, so the leading
    // zero bytes of the small seqs that fill a decision fold into one
    // multiply by a power of it: same hash, a shorter multiply chain.
    if (v < 0x100) {
      hash_ = ((hash_ * kPrime3) ^ v) * kPrime;
    } else if (v < 0x10000) {
      hash_ = ((((hash_ * kPrime2) ^ (v >> 8)) * kPrime) ^ (v & 0xFF)) *
              kPrime;
    } else {
      put_be<4>(v);
    }
  }
  void u64(std::uint64_t v) { put_be<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  static constexpr std::uint64_t kPrime2 = kPrime * kPrime;
  static constexpr std::uint64_t kPrime3 = kPrime2 * kPrime;

  template <std::size_t N>
  void put_be(std::uint64_t v) {
    for (std::size_t i = 0; i < N; ++i) {
      u8(static_cast<std::uint8_t>(v >> (8 * (N - 1 - i))));
    }
  }

  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis
};

enum class DecodeError {
  kTruncated,       // read past end of buffer
  kTrailingBytes,   // finish() with unconsumed input
  kBadValue,        // field decoded but semantically invalid
};

[[nodiscard]] std::string_view to_string(DecodeError err);

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t, DecodeError> u8() {
    return get_be<std::uint8_t>();
  }
  [[nodiscard]] Result<std::uint16_t, DecodeError> u16() {
    return get_be<std::uint16_t>();
  }
  [[nodiscard]] Result<std::uint32_t, DecodeError> u32() {
    return get_be<std::uint32_t>();
  }
  [[nodiscard]] Result<std::uint64_t, DecodeError> u64() {
    return get_be<std::uint64_t>();
  }
  [[nodiscard]] Result<std::int32_t, DecodeError> i32() {
    auto v = u32();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int32_t>(v.value());
  }
  [[nodiscard]] Result<std::int64_t, DecodeError> i64() {
    auto v = u64();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int64_t>(v.value());
  }
  [[nodiscard]] Result<bool, DecodeError> boolean();
  [[nodiscard]] Result<std::vector<std::uint8_t>, DecodeError> bytes();
  /// A bytes() field in place: a view into the input, no copy.
  [[nodiscard]] Result<std::span<const std::uint8_t>, DecodeError>
  bytes_view();
  [[nodiscard]] Result<std::string, DecodeError> str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Succeeds iff the whole input has been consumed.
  [[nodiscard]] Status<DecodeError> finish() const;

 private:
  [[nodiscard]] bool take(std::size_t n, std::span<const std::uint8_t>& out);

  /// Reads one big-endian T with a single bounds check.
  template <typename T>
  [[nodiscard]] Result<T, DecodeError> get_be() {
    if (data_.size() - pos_ < sizeof(T)) {
      return Unexpected(DecodeError::kTruncated);
    }
    const std::uint8_t* in = data_.data() + pos_;
    pos_ += sizeof(T);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>((static_cast<std::uint64_t>(v) << 8) | in[i]);
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace urcgc::wire
