#pragma once
// SmallVec<T, N>: a vector of trivially copyable values that keeps up to N
// of them inline and spills to one heap block only beyond that.
//
// Receive paths build one short list per message (a message's causal
// dependencies); holding the common case inline makes decoding, parking
// and storing such a list allocation-free. Moving a spilled SmallVec
// steals its block; moving an inline one copies N values at most.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace urcgc {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec moves its values with memcpy");
  static_assert(N > 0);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using pointer = T*;
  using const_pointer = const T*;
  using iterator = T*;
  using const_iterator = const T*;

  /// Values held without a heap block.
  static constexpr std::size_t kInline = N;

  // User-provided, so value initialization (AppMessage{}) runs the member
  // initializers below instead of zero-filling the inline buffer too.
  SmallVec() noexcept {}  // NOLINT(modernize-use-equals-default)
  SmallVec(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
  }
  /// Copies a vector's values (the public APIs take std::vector).
  SmallVec(const std::vector<T>& values) {  // NOLINT(google-explicit-constructor)
    assign(values.begin(), values.end());
  }
  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }
  SmallVec(SmallVec&& other) noexcept { steal(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~SmallVec() { release(); }

  [[nodiscard]] T* data() { return heap_ != nullptr ? heap_ : inline_data(); }
  [[nodiscard]] const T* data() const {
    return heap_ != nullptr ? heap_ : inline_data();
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const {
    return heap_ != nullptr ? capacity_ : N;
  }
  /// True while the values live in a heap block.
  [[nodiscard]] bool spilled() const { return heap_ != nullptr; }

  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] T& front() { return data()[0]; }
  [[nodiscard]] const T& front() const { return data()[0]; }

  void push_back(const T& value) {
    if (size_ == capacity()) grow(std::max<std::size_t>(2 * capacity(), 1));
    data()[size_++] = value;
  }
  void pop_back() {
    URCGC_ASSERT(size_ > 0);
    --size_;
  }
  void clear() { size_ = 0; }

  /// Ensures room for `count` values, keeping the current ones.
  void reserve(std::size_t count) {
    if (count > capacity()) grow(count);
  }
  /// Removes [first, last), shifting the tail down.
  T* erase(const T* first, const T* last) {
    T* at = data() + (first - data());
    const std::size_t tail = static_cast<std::size_t>(end() - last);
    if (tail > 0) std::memmove(at, last, tail * sizeof(T));
    size_ -= static_cast<std::uint32_t>(last - first);
    return at;
  }

  template <typename It>
  void assign(It first, It last) {
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    clear();
    reserve(count);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(count);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const SmallVec& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] T* inline_data() {
    return std::launder(reinterpret_cast<T*>(inline_));
  }
  [[nodiscard]] const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  /// Moves the values into a heap block of `count` slots.
  void grow(std::size_t count) {
    URCGC_ASSERT(count <= UINT32_MAX);
    T* block = std::allocator<T>().allocate(count);
    if (size_ > 0) std::memcpy(block, data(), size_ * sizeof(T));
    release();
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(count);
  }
  void release() {
    if (heap_ != nullptr) std::allocator<T>().deallocate(heap_, capacity_);
    heap_ = nullptr;
    capacity_ = 0;
  }
  /// Takes `other`'s values (its block, or a copy of its inline ones) and
  /// leaves it empty. Requires this to hold no block. The inline copy is
  /// unrolled over N, so it compiles to a few moves, not a library call.
  void steal(SmallVec& other) {
    heap_ = other.heap_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (heap_ == nullptr) {
      for (std::size_t i = 0; i < N; ++i) {
        if (i < size_) inline_data()[i] = other.inline_data()[i];
      }
    }
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;  ///< of heap_; 0 while inline
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace urcgc
