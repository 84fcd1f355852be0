#pragma once
// GMT sublayer (paper Section 5): the mt entity processes messages, stores
// them into the history, manages history cleaning, and serves/absorbs
// point-to-point recovery.
//
// This layer is purely reactive and timing-free: the GC sublayer (driven by
// rounds and subruns) feeds it messages and maintenance commands. That
// split mirrors the paper's protocol architecture and keeps everything here
// unit-testable without a simulator.

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "causal/prefix_set.hpp"
#include "causal/waiting_list.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/history.hpp"
#include "core/message.hpp"
#include "core/observer.hpp"
#include "core/pdu.hpp"
#include "wire/sparse.hpp"

namespace urcgc::core {

class MtEntity {
 public:
  /// Invoked exactly once per message, at the instant it is processed (the
  /// urcgc_data_Ind of the SAP). The message is the history's stored copy:
  /// the reference is valid only during the callback, so a callee that
  /// needs the message later copies it. A callback may call submit(); the
  /// nested processing, and every release it triggers, completes before
  /// the waiters this message releases are processed.
  using ProcessedFn = std::function<void(const AppMessage&)>;

  MtEntity(const Config& config, ProcessId self, Observer* observer);

  void set_on_processed(ProcessedFn fn) { on_processed_ = std::move(fn); }

  /// What submit() did with a message.
  enum class SubmitResult : std::uint8_t {
    kProcessed,  ///< every dependency satisfied; processed immediately
    kParked,     ///< missing dependencies; parked in the waiting list
    kDuplicate,  ///< already processed or already waiting; ignored
    kRejected,   ///< would park but the waiting list is at its hard cap
  };

  /// Feeds a message (from the network, local generation, or a recovery
  /// response). Processes it immediately when every dependency has been
  /// processed — releasing any waiters that become satisfied — or parks it
  /// in the waiting list. Duplicates are ignored. When Config::waiting_cap
  /// is set and the waiting list is full, a message that would park is
  /// rejected instead (backpressure): the span stays recoverable because
  /// stability cleaning cannot pass this member's processed prefix.
  ///
  /// Takes the message by value: callers that are done with their copy move
  /// it in, and parking or storing it moves it on (inline deps, and the
  /// payload slice that pins its frame) without touching the heap.
  SubmitResult submit(AppMessage msg, Tick now);

  [[nodiscard]] bool processed(const Mid& mid) const;
  /// Contiguous processed prefix of origin's sequence (last_processed[j]).
  [[nodiscard]] Seq prefix(ProcessId origin) const {
    return processed_.at(origin).prefix();
  }
  /// Writes prefix(j) for the first `width` origins into `out` (resized to
  /// `width`, reusing its capacity).
  void last_processed_into(std::vector<Seq>& out, int width) const;
  /// Oldest waiting seq of the first `width` origins into `out`; kNoSeq
  /// where nothing waits.
  void oldest_waiting_into(std::vector<Seq>& out, int width) const;

  /// REQUEST report tracking. The report a member sends each subrun is
  /// its processed prefix per origin, as overrides against the applied
  /// decision's max_processed, plus the oldest waiting seq where anything
  /// waits. This entity keeps the set of origins whose report entries may
  /// differ from that baseline: every origin whose prefix moved or that
  /// parked a message, plus those the caller marks when the baseline
  /// changes. The set is a superset; report_overrides() prunes the origins
  /// it finds back in step, so building a report costs O(changed).
  void mark_report_dirty(ProcessId origin) {
    report_dirty_[static_cast<std::size_t>(origin) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(origin) % 64);
  }
  void mark_report_dirty_all();

  /// The sparse report against `baseline` (the applied decision's
  /// max_processed; its width is the live view): `processed` receives
  /// (j, prefix(j)) wherever the prefix differs from baseline[j], and
  /// `waiting` (j, oldest waiting seq) wherever a message of origin j
  /// waits, both in index order — the sections encode_request_delta_body
  /// writes for last_processed_into/oldest_waiting_into at that width.
  void report_overrides(const std::vector<Seq>& baseline,
                        std::vector<wire::SeqOverride>& processed,
                        std::vector<wire::SeqOverride>& waiting);

  /// Calls fn(j) in ascending order for every origin j < width whose
  /// report entry may differ from the baseline: no other origin's prefix
  /// can differ from the baseline's max_processed.
  template <typename Fn>
  void for_each_report_dirty(int width, Fn fn) const {
    const auto limit = static_cast<std::size_t>(width);
    for (std::size_t w = 0; w * 64 < limit; ++w) {
      std::uint64_t bits = report_dirty_[w];
      while (bits != 0) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (j >= limit) return;
        bits &= bits - 1;
        fn(static_cast<ProcessId>(j));
      }
    }
  }

  /// Serves a peer's recovery request from the local history: the
  /// RecoverRsp frame, encoded straight from the stored messages, or an
  /// empty vector when the history holds nothing in the range. A batch
  /// holds at most Config::max_recover_batch messages and is flagged
  /// truncated when the range holds more.
  [[nodiscard]] std::vector<std::uint8_t> serve_recovery(
      const RecoverRq& rq) const;

  /// Applies a full_group cleaning decision. `clean_upto` may be narrower
  /// than the provisioned capacity (it is view-width when the live view has
  /// not yet grown to capacity); origins past its width are untouched.
  /// Returns messages purged.
  std::size_t clean(const std::vector<Seq>& clean_upto);
  /// The same, for the listed origins only: when every other entry equals
  /// a cleaning point already applied, the result is clean()'s.
  std::size_t clean(const std::vector<Seq>& clean_upto,
                    std::span<const std::uint16_t> origins);

  /// Snapshot catch-up (DESIGN.md section 12): adopts a serving member's
  /// per-origin clean floor as this member's processed prefix. Everything
  /// at or below the floor is group-stable, so marking it processed without
  /// the payloads ever transiting is safe; parked copies the baseline
  /// covers are swept as duplicates and waiters whose missing dependencies
  /// the baseline satisfies are released. Returns seqs newly covered.
  std::size_t adopt_baseline(const std::vector<Seq>& baseline, Tick now);

  /// Per-origin highest cleaning point applied locally — the baseline this
  /// member serves to a catching-up joiner (kNoSeq where never cleaned:
  /// the full sequence is still recoverable from the history).
  [[nodiscard]] const std::vector<Seq>& clean_floor() const {
    return clean_floor_;
  }

  /// The live view changed (a join widened the member vectors). Bumps the
  /// history version so recovery serve-cache entries from the old view
  /// cannot revalidate (the cached range may predate the joiner).
  void note_view_change() { history_.note_membership_change(); }

  /// Cuts an orphaned sequence: discards every waiting message depending on
  /// origin's messages with seq >= gap_seq (paper Section 4: the gap can
  /// never be recovered because every holder crashed). Returns the
  /// discarded mids.
  std::vector<Mid> discard_orphans(ProcessId origin, Seq gap_seq, Tick now);

  /// Contiguous gaps the waiting list is blocked on, grouped per origin —
  /// what the GC sublayer asks the most-updated peer to recover. Only spans
  /// of messages not already held in the waiting list are reported.
  struct MissingRange {
    ProcessId origin;
    Seq from_seq;
    Seq to_seq;
  };
  [[nodiscard]] std::vector<MissingRange> missing_ranges() const;

  [[nodiscard]] std::size_t history_size() const {
    return history_.total_size();
  }
  [[nodiscard]] std::size_t waiting_size() const { return waiting_.size(); }
  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] const std::vector<Mid>& processing_log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t duplicates_ignored() const {
    return duplicates_;
  }
  /// Messages refused at the waiting cap (see SubmitResult::kRejected).
  [[nodiscard]] std::uint64_t waiting_rejected() const {
    return waiting_rejected_;
  }
  /// Exact occupancy high-water marks (tracked at every mutation, not
  /// sampled — the checker's buffer-bounds clause compares these against
  /// the configured caps).
  [[nodiscard]] std::size_t waiting_peak() const { return waiting_peak_; }
  [[nodiscard]] std::size_t history_peak() const { return history_peak_; }

 private:
  void process_now(AppMessage msg, Tick now);
  /// clean() for one origin.
  std::size_t clean_origin(ProcessId j, Seq upto);

  Config config_;
  ProcessId self_;
  Observer* observer_;
  ProcessedFn on_processed_;

  History history_;
  causal::WaitingList waiting_;
  // Scratch buffers reused across calls, so steady-state processing and
  // parking allocate nothing of their own. process_now() drains queue_ in
  // segments: each (possibly re-entrant) call owns the tail it pushed.
  static constexpr std::size_t kCompactAfter = 16;
  std::vector<AppMessage> queue_;
  std::vector<causal::PendingMessage> released_;
  std::vector<Mid> missing_;
  std::vector<causal::PrefixSet> processed_;
  std::vector<Seq> clean_floor_;
  /// Per origin, the highest point clean() has purged the history to.
  /// Every message stored later lies above the processed prefix that
  /// bounded that purge, so a cleaning point at or below it has nothing
  /// left to purge and clean() skips the origin.
  std::vector<Seq> purged_upto_;
  /// Report tracking: one bit per origin (see mark_report_dirty), and
  /// the scratch report_overrides() reads oldest waiting seqs into.
  std::vector<std::uint64_t> report_dirty_;
  std::vector<Seq> oldest_scratch_;
  std::vector<Mid> log_;  // local processing order, for validation
  std::uint64_t duplicates_ = 0;
  std::uint64_t waiting_rejected_ = 0;
  std::size_t waiting_peak_ = 0;
  std::size_t history_peak_ = 0;
};

}  // namespace urcgc::core
