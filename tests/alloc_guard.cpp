#include "alloc_guard.hpp"

#include <cstdlib>
#include <limits>
#include <new>

// Replacement of the global operator new/delete family for the test
// binary; see alloc_guard.hpp.
//
// The hostile-count decoder tests assert "rejected without allocating": a
// decoder whose pre-check wraps in 32-bit arithmetic reserves hundreds of
// megabytes before it notices the buffer is truncated. While a guard is
// armed on the current thread, any single allocation above the cap is
// refused, so the regression shows up as a thrown std::bad_alloc (test
// failure) instead of a silent memory spike. The per-thread allocation
// count backs the allocation-budget tests of the delivery path.
//
// GCC's -Wmismatched-new-delete heuristic flags std::free inside a
// replaced operator delete even though pairing malloc/free across
// replaced global operators is exactly how the standard says to do it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
thread_local std::size_t t_alloc_cap = std::numeric_limits<std::size_t>::max();
thread_local std::uint64_t t_allocations = 0;

void* capped_alloc(std::size_t size) {
  ++t_allocations;
  if (size > t_alloc_cap) throw std::bad_alloc();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* capped_alloc_nothrow(std::size_t size) noexcept {
  ++t_allocations;
  if (size > t_alloc_cap) return nullptr;
  return std::malloc(size != 0 ? size : 1);
}

void* capped_aligned_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  if (size > t_alloc_cap) throw std::bad_alloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

namespace urcgc::testsupport {

AllocationCapGuard::AllocationCapGuard(std::size_t cap) { t_alloc_cap = cap; }

AllocationCapGuard::~AllocationCapGuard() {
  t_alloc_cap = std::numeric_limits<std::size_t>::max();
}

std::uint64_t thread_allocations() { return t_allocations; }

}  // namespace urcgc::testsupport

// Replacing operator new requires replacing the WHOLE family, or the
// standard library may allocate through an unreplaced variant (e.g. the
// nothrow form used by std::stable_partition's temporary buffer) and
// deallocate through a replaced one — an alloc/dealloc mismatch ASan
// rightly aborts on. Everything funnels into malloc/free.
void* operator new(std::size_t size) { return capped_alloc(size); }
void* operator new[](std::size_t size) { return capped_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return capped_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return capped_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
