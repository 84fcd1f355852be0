#pragma once
// Process-wide heap accounting: this binary replaces the global operator
// new/delete, so every allocation the urcgc stack makes is counted here
// without any hook inside the library.

#include <cstdint>

namespace bench::heap {

/// operator new calls since process start (every form).
[[nodiscard]] std::uint64_t allocations();

/// Bytes currently live (usable size of every block not yet freed).
[[nodiscard]] std::int64_t live_bytes();

/// High-water mark of live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();

/// Restarts peak tracking from the current live size; returns that size.
std::int64_t reset_peak();

}  // namespace bench::heap
