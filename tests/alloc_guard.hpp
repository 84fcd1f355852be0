#pragma once
// Allocation hooks shared by the test binary. alloc_guard.cpp replaces the
// global operator new/delete family with a malloc pass-through that counts
// every allocation per thread and, while a guard is armed on the current
// thread, refuses any single allocation above a cap.

#include <cstddef>
#include <cstdint>

namespace urcgc::testsupport {

/// While alive, any single allocation above `cap` bytes on this thread
/// throws std::bad_alloc (the nothrow forms return nullptr). Tests that
/// assert "rejected without allocating" or "no O(span) allocation" arm one,
/// so a regression fails the test instead of silently eating memory.
class AllocationCapGuard {
 public:
  explicit AllocationCapGuard(std::size_t cap);
  ~AllocationCapGuard();
  AllocationCapGuard(const AllocationCapGuard&) = delete;
  AllocationCapGuard& operator=(const AllocationCapGuard&) = delete;
};

/// Allocations made on the calling thread so far, through any form of
/// global operator new. Take the difference around the code under test.
[[nodiscard]] std::uint64_t thread_allocations();

}  // namespace urcgc::testsupport
