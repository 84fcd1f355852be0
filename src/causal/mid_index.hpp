#pragma once
// Flat open-addressing map from a Mid to a 32-bit value (an index into a
// pool owned by the caller).
//
// A cell is 16 bytes: the mid's seq, its origin and the value side by side.
// An origin of kEmptyOrigin marks a free cell, so no mid may use it.
// Linear probing with backward-shift deletion keeps every probe chain free
// of gaps: there are no tombstones, and erases in the middle of a chain
// leave lookups exactly as short as a fresh insert order would. The table
// doubles when an insert would push its load past 3/4 and never shrinks,
// so once it has grown to the working set, inserts and erases allocate
// nothing.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace urcgc::causal {

class MidIndex {
 public:
  static constexpr ProcessId kEmptyOrigin =
      std::numeric_limits<ProcessId>::min();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Cells allocated (a power of two, or 0 before the first insert).
  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

  /// The value stored under `mid`, or nullptr. The pointer stays valid
  /// until the next insert or erase.
  [[nodiscard]] std::uint32_t* find(const Mid& mid) {
    const std::size_t i = locate(mid);
    return i == kAbsent ? nullptr : &cells_[i].value;
  }
  [[nodiscard]] const std::uint32_t* find(const Mid& mid) const {
    const std::size_t i = locate(mid);
    return i == kAbsent ? nullptr : &cells_[i].value;
  }

  /// Inserts `mid`, which must be absent.
  void insert(const Mid& mid, std::uint32_t value) {
    URCGC_ASSERT(mid.origin != kEmptyOrigin);
    if ((size_ + 1) * 4 > cells_.size() * 3) {
      rehash(cells_.empty() ? kMinCells : cells_.size() * 2);
    }
    place(Cell{mid.seq, mid.origin, value});
    ++size_;
  }

  /// Removes `mid`; returns false when it was absent.
  bool erase(const Mid& mid) {
    std::size_t hole = locate(mid);
    if (hole == kAbsent) return false;
    // Walk the rest of the chain: a member whose home lies at or before the
    // hole moves into it, and its old cell becomes the hole. No lookup then
    // meets a gap before the mid it seeks.
    for (std::size_t next = (hole + 1) & mask();; next = (next + 1) & mask()) {
      const Cell& cell = cells_[next];
      if (cell.origin == kEmptyOrigin) break;
      const std::size_t displacement =
          (next - home(Mid{cell.origin, cell.seq})) & mask();
      if (displacement >= ((next - hole) & mask())) {
        cells_[hole] = cell;
        hole = next;
      }
    }
    cells_[hole].origin = kEmptyOrigin;
    --size_;
    return true;
  }

  /// Calls fn(mid, value) for every entry, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.origin != kEmptyOrigin) {
        fn(Mid{cell.origin, cell.seq}, cell.value);
      }
    }
  }

 private:
  struct Cell {
    Seq seq = kNoSeq;
    ProcessId origin = kEmptyOrigin;
    std::uint32_t value = 0;
  };
  static_assert(sizeof(Cell) == 16);
  static constexpr std::size_t kMinCells = 16;
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  [[nodiscard]] std::size_t mask() const { return cells_.size() - 1; }
  [[nodiscard]] std::size_t home(const Mid& mid) const {
    return std::hash<Mid>{}(mid) & mask();
  }

  /// The cell holding `mid`, or kAbsent.
  [[nodiscard]] std::size_t locate(const Mid& mid) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(mid);; i = (i + 1) & mask()) {
      const Cell& cell = cells_[i];
      if (cell.origin == kEmptyOrigin) return kAbsent;
      if (cell.origin == mid.origin && cell.seq == mid.seq) return i;
    }
  }

  void place(const Cell& cell) {
    std::size_t i = home(Mid{cell.origin, cell.seq});
    while (cells_[i].origin != kEmptyOrigin) i = (i + 1) & mask();
    cells_[i] = cell;
  }

  void rehash(std::size_t cells) {
    std::vector<Cell> old(cells);
    old.swap(cells_);
    for (const Cell& cell : old) {
      if (cell.origin != kEmptyOrigin) place(cell);
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace urcgc::causal
