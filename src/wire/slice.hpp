#pragma once
// Zero-copy receive views over SharedBuffer frames.
//
// Slice: a ref-counted byte range inside a SharedBuffer. A decoded
// application message keeps its payload as a Slice of the datagram it
// arrived in, so the n receivers of a broadcast share one frame instead of
// each copying the payload out of it. A stored message therefore pins its
// whole frame until it is purged (DESIGN.md "Wire buffers & zero-copy
// fan-out").
//
// FrameRef: what an endpoint upcall receives — a datagram's bytes plus,
// when the endpoint has one, the SharedBuffer that holds them. It converts
// implicitly from a span (so a decorator that only has bytes still works)
// and to one (it is a contiguous range, so std::span's range constructor
// takes it; it deliberately has no conversion operator of its own, which
// would make that conversion ambiguous). Only the owning form can be
// pinned without a copy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "wire/shared_buffer.hpp"

namespace urcgc::wire {

class Slice {
 public:
  /// Empty slice; pins nothing.
  Slice() = default;

  /// Adopts `bytes` as a new buffer and spans all of it, without copying
  /// (implicit, so `msg.payload = std::move(vec)` keeps compiling). There
  /// is deliberately no lvalue-vector constructor: an lvalue must say
  /// `Slice::copy(v)`, and the absence keeps a vector argument from
  /// competing with std::span in overload resolution.
  Slice(std::vector<std::uint8_t>&& bytes)  // NOLINT(google-explicit-constructor)
      : Slice(SharedBuffer::take(std::move(bytes))) {}

  /// A private copy of literal bytes.
  Slice(std::initializer_list<std::uint8_t> bytes)
      : Slice(SharedBuffer::copy(std::span(bytes.begin(), bytes.size()))) {}

  /// All of `buffer`.
  explicit Slice(SharedBuffer buffer)
      : owner_(std::move(buffer)),
        data_(owner_.data()),
        size_(owner_.size()) {}

  /// `within`, which must lie inside `owner`'s bytes.
  Slice(SharedBuffer owner, std::span<const std::uint8_t> within)
      : owner_(std::move(owner)), data_(within.data()), size_(within.size()) {
    const auto all = owner_.view();
    URCGC_ASSERT_MSG(
        size_ == 0 || (data_ >= all.data() &&
                       data_ + size_ <= all.data() + all.size()),
        "slice outside its buffer");
  }

  /// A new buffer holding a private copy of `bytes` (counted as a copy in
  /// wire::buffer_stats()).
  [[nodiscard]] static Slice copy(std::span<const std::uint8_t> bytes) {
    return Slice(SharedBuffer::copy(bytes));
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {data_, size_};
  }

  /// The buffer this slice pins (empty for an empty slice built by
  /// default).
  [[nodiscard]] const SharedBuffer& owner() const { return owner_; }

  friend bool operator==(const Slice& a, const Slice& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Slice& a, const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  SharedBuffer owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class FrameRef {
 public:
  /// Bytes with no owner: pinning them copies.
  FrameRef(std::span<const std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(bytes) {}
  FrameRef(const std::vector<std::uint8_t>& bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(bytes) {}
  /// All of `owner`.
  FrameRef(const SharedBuffer& owner)  // NOLINT(google-explicit-constructor)
      : bytes_(owner.view()), owner_(&owner) {}
  /// `within`, which lies inside `owner`.
  FrameRef(const SharedBuffer& owner, std::span<const std::uint8_t> within)
      : bytes_(within), owner_(&owner) {}

  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] const std::uint8_t* begin() const { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* end() const {
    return bytes_.data() + bytes_.size();
  }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return bytes_; }

  /// The buffer holding the bytes, or nullptr for a span-only frame.
  [[nodiscard]] const SharedBuffer* owner() const { return owner_; }

  /// A Slice that outlives the upcall: shares the owner when there is
  /// one, else copies the bytes once.
  [[nodiscard]] Slice pin() const {
    return owner_ != nullptr ? Slice(*owner_, bytes_) : Slice::copy(bytes_);
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const SharedBuffer* owner_ = nullptr;
};

}  // namespace urcgc::wire
