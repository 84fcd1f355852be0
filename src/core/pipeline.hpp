#pragma once
// SubrunPipeline: the control-plane side of the data-plane/control-plane
// split (DESIGN.md section 10).
//
// The data plane — eager causal delivery through the waiting list — never
// waits for a DECISION: MtEntity processes a message the moment its
// dependency labels are satisfied. What *was* coupled to the subrun
// cadence is the control plane around it: generation was capped at one
// message per round, one coordinator inbox window existed at a time, and
// the failure detector awaited the decision of subrun s-1 at the entry of
// subrun s. This class owns exactly those couplings and generalizes them
// to a pipelining depth k (Config::max_subruns_in_flight):
//
//   - awaited(s) = s-k: the decision the failure detector waits on;
//     decisions for subruns (s-k, s) may still be in flight without
//     counting as misses.
//   - generation_budget = k per round while fewer than k decisions are
//     outstanding, collapsing to 1 (a stall) when the control plane falls
//     a full window behind — total-order/stability commitment trails
//     asynchronously, but unboundedly outrunning it would let histories
//     grow without stability cleaning catching up.
//   - the last k inbox windows stay open, one per in-flight subrun, each
//     with its own duplicate/cap accounting, so a REQUEST delayed by less
//     than k subruns still joins its own subrun's quorum instead of being
//     dropped.
//
// At k=1 every rule reduces exactly to the paper's paced behavior
// (awaited = s-1, budget 1, a single window) — the seed path bit for bit.

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/pdu.hpp"

namespace urcgc::core {

class SubrunPipeline {
 public:
  /// `depth` = Config::max_subruns_in_flight (>= 1); `inbox_cap` caps each
  /// window independently (0 = uncapped), matching Config::inbox_cap.
  SubrunPipeline(int depth, std::size_t inbox_cap);

  [[nodiscard]] int depth() const { return depth_; }

  // ---- member-side control plane ----

  /// Subrun whose decision the failure detector awaits at the entry of
  /// `subrun`'s request round (< 0: nothing awaited yet).
  [[nodiscard]] SubrunId awaited(SubrunId subrun) const {
    return subrun - depth_;
  }

  /// Decisions outstanding at `subrun` given the freshest decision held:
  /// under fault-free pacing decided_at = subrun-1, i.e. zero in flight.
  [[nodiscard]] int decisions_in_flight(SubrunId subrun,
                                        SubrunId decided_at) const;

  /// Messages the data plane may generate this round: `depth` while the
  /// control plane trails by fewer than `depth` subruns, else 1.
  [[nodiscard]] int generation_budget(SubrunId subrun,
                                      SubrunId decided_at) const;

  /// True when the budget collapsed because the decision lag reached the
  /// pipeline depth (meaningful only at depth > 1).
  [[nodiscard]] bool stalled(SubrunId subrun, SubrunId decided_at) const;

  // ---- coordinator-side inbox windows ----

  enum class Admit : std::uint8_t {
    kAccepted,   ///< parked in its subrun's window
    kClosed,     ///< no window open for that subrun (late or early)
    kDuplicate,  ///< same sender already parked in that window
    kOverflow,   ///< the window is at inbox_cap
  };

  /// Opens the collection window for `subrun` (idempotent) and evicts
  /// windows that fell out of the depth-k span — their parked requests
  /// are discarded, exactly like the seed's inbox reset. `expected` sizes
  /// a new window up front (capped at inbox_cap), so a coordinator's
  /// window takes the whole group's requests without reallocating.
  void open_window(SubrunId subrun, std::size_t expected = 0);

  /// Files `rq` into its subrun's window, if one is open.
  [[nodiscard]] Admit admit(Request&& rq);

  /// Consumes and closes `subrun`'s window; empty when none is open. A
  /// late REQUEST for a consumed window is kClosed from then on.
  [[nodiscard]] std::vector<Request> take_window(SubrunId subrun);

  /// Requests parked across every open window (the per-round gauge).
  [[nodiscard]] std::size_t parked() const;
  /// High-water mark of a single window's occupancy — what the
  /// buffer-bounds clause compares against inbox_cap.
  [[nodiscard]] std::size_t window_peak() const { return window_peak_; }
  /// Open windows right now (bounded by depth).
  [[nodiscard]] std::size_t open_windows() const { return windows_.size(); }

 private:
  struct Window {
    SubrunId subrun = -1;
    std::vector<Request> requests;
  };

  [[nodiscard]] Window* find(SubrunId subrun);

  int depth_;
  std::size_t inbox_cap_;
  std::vector<Window> windows_;  // ascending subrun; size <= depth_
  std::size_t window_peak_ = 0;
};

}  // namespace urcgc::core
