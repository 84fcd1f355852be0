#include "alloc_hook.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace bench::heap {
namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Every block carries a 16-byte header just below the pointer handed out:
// the requested size and the address malloc returned. Accounting by the
// requested size (not malloc's usable size, which depends on which chunk
// the allocator happens to reuse) keeps live and peak bytes a pure
// function of the program's allocation sequence.
constexpr std::size_t kHeader = 16;

struct Header {
  std::size_t size;
  void* base;
};
static_assert(sizeof(Header) == kHeader);

void* finish(void* base, std::size_t offset, std::size_t size) {
  auto* user = static_cast<unsigned char*>(base) + offset;
  const Header h{size, base};
  std::memcpy(user - kHeader, &h, kHeader);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::int64_t>(size);
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return user;
}

void* allocate(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  return finish(base, kHeader, size);
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto a = std::max(static_cast<std::size_t>(align), kHeader);
  // aligned_alloc wants a size that is a multiple of the alignment; the
  // header takes one alignment unit in front of the user block.
  const std::size_t total = (size + a + a - 1) / a * a;
  void* base = std::aligned_alloc(a, total);
  if (base == nullptr) throw std::bad_alloc();
  return finish(base, a, size);
}

void release(void* p) {
  if (p == nullptr) return;
  Header h{};
  std::memcpy(&h, static_cast<unsigned char*>(p) - kHeader, kHeader);
  g_live.fetch_sub(static_cast<std::int64_t>(h.size),
                   std::memory_order_relaxed);
  std::free(h.base);
}

}  // namespace

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

std::int64_t reset_peak() {
  const std::int64_t live = live_bytes();
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

}  // namespace bench::heap

void* operator new(std::size_t size) { return bench::heap::allocate(size); }
void* operator new[](std::size_t size) { return bench::heap::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return bench::heap::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return bench::heap::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return bench::heap::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return bench::heap::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { bench::heap::release(p); }
void operator delete[](void* p) noexcept { bench::heap::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  bench::heap::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  bench::heap::release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  bench::heap::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  bench::heap::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  bench::heap::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  bench::heap::release(p);
}
