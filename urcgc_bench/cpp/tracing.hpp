#pragma once
// Bench-side tracing for the traced run: decorators around the public
// boundaries of the stack (rt::Runtime, net::Endpoint) that record spans,
// plus a codec replay over frames captured at the endpoint. Nothing here
// lives inside the urcgc libraries, and untraced runs construct none of it.
//
// A span is (owner, layer, start, end). Spans nest on a per-thread stack;
// a layer's self time is its spans' durations minus the part covered by
// child spans. Totals are kept per owner (process id, host last), and
// every owner's work runs on one thread on every backend, so each total
// has a single writer; the host thread reads them between run calls,
// when every worker is parked at the round barrier.

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/endpoint.hpp"
#include "runtime/runtime.hpp"

namespace bench {

enum class Layer : int {
  kRuntimeTask,    ///< a post() closure that delivered nothing (timers)
  kNetDeliver,     ///< a post() closure that ran an endpoint upcall
  kNetSend,        ///< Endpoint::send / broadcast
  kRxApp,          ///< upcall of a kAppData frame
  kRxRequest,      ///< upcall of a REQUEST frame (full or delta)
  kRxDecision,     ///< upcall of a DECISION frame (full or delta)
  kRxRecoverRq,    ///< upcall of a recovery request (serving side)
  kRxRecoverRsp,   ///< upcall of a recovery response
  kRxOther,        ///< any other frame type
  kRequestRound,   ///< a member's round handler on a request round
  kDecisionRound,  ///< a member's round handler on a decision round
  kWorkload,       ///< the load generator's round handler (host)
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::array<std::uint64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> calls{};
  /// Sum of outermost span durations: time the owner's thread spent inside
  /// any traced boundary.
  std::uint64_t top_ns = 0;
  /// Thread CPU time of the owner's thread at its latest round start
  /// (recorded for member owners only).
  std::int64_t thread_cpu_ns = 0;

  LayerTotals& operator+=(const LayerTotals& o);
  [[nodiscard]] LayerTotals operator-(const LayerTotals& o) const;
};

/// Wire frame kinds replayed through the public codec.
enum class FrameKind : int { kApp, kRequest, kDecision, kRecoverRsp, kCount };
inline constexpr std::size_t kFrameKinds =
    static_cast<std::size_t>(FrameKind::kCount);
inline constexpr std::array<const char*, kFrameKinds> kFrameKindNames{
    "app", "request", "decision", "recover_rsp"};

class Tracer {
 public:
  /// `members` process owners plus the host owner (slot `members`).
  Tracer(int members, std::size_t capture_per_kind);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] int slot(urcgc::ProcessId owner) const {
    return owner == urcgc::kNoProcess ? members_ : owner;
  }
  LayerTotals& totals_of(int slot) { return totals_[static_cast<std::size_t>(slot)]; }

  /// Sum over every owner. Host thread only, with workers parked.
  [[nodiscard]] LayerTotals totals() const;

  void count_post() { posts_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t posts() const {
    return posts_.load(std::memory_order_relaxed);
  }

  /// Frame capture is on only inside the measured window; the host
  /// thread flips it between run calls.
  void set_capturing(bool on) { capturing_ = on; }
  /// Copies `bytes` into owner `slot`'s sample if its kind is replayable
  /// and the per-owner quota is not used up.
  void capture(int slot, std::span<const std::uint8_t> bytes);

  /// Times the public decode_pdu / encode_pdu over every captured frame;
  /// ns per frame by kind (0 where nothing was captured).
  struct Replay {
    std::array<double, kFrameKinds> decode_ns{};
    std::array<double, kFrameKinds> encode_ns{};
  };
  [[nodiscard]] Replay replay() const;

 private:
  int members_;
  std::size_t capture_per_kind_;
  bool capturing_ = false;
  std::vector<LayerTotals> totals_;
  // [slot][kind] -> captured frames
  std::vector<std::array<std::vector<std::vector<std::uint8_t>>, kFrameKinds>>
      frames_;
  std::atomic<std::uint64_t> posts_{0};
};

/// RAII span on the calling thread's stack.
class Span {
 public:
  Span(Tracer& tracer, int slot, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

[[nodiscard]] std::int64_t thread_cpu_ns();

/// rt::Runtime decorator: spans every post() closure and on_round()
/// handler it forwards. Round handlers of members are classified request
/// or decision round by the round's parity; host handlers are workload.
class TracedRuntime final : public urcgc::rt::Runtime {
 public:
  /// `sample_thread_cpu`: record each member thread's CPU clock at its
  /// round start (threaded backends, where members own their threads).
  TracedRuntime(urcgc::rt::Runtime& inner, Tracer& tracer,
                bool sample_thread_cpu)
      : inner_(inner),
        tracer_(tracer),
        sample_thread_cpu_(sample_thread_cpu) {}

  [[nodiscard]] urcgc::Tick now() const override { return inner_.now(); }
  [[nodiscard]] const urcgc::rt::RoundClock& clock() const override {
    return inner_.clock();
  }
  using Runtime::after;
  void post(urcgc::ProcessId owner, urcgc::Tick delay,
            urcgc::rt::EventFn fn) override;
  using Runtime::on_round;
  void on_round(urcgc::ProcessId owner,
                urcgc::rt::RoundHandler handler) override;
  urcgc::Tick run_until(urcgc::Tick limit) override {
    return inner_.run_until(limit);
  }
  urcgc::Tick run_until_quiescent(
      urcgc::Tick limit, const std::function<bool()>& predicate) override {
    return inner_.run_until_quiescent(limit, predicate);
  }
  urcgc::rt::DatagramSubnet* datagram_subnet() override {
    return inner_.datagram_subnet();
  }

 private:
  urcgc::rt::Runtime& inner_;
  Tracer& tracer_;
  bool sample_thread_cpu_;
};

/// net::Endpoint decorator: spans send/broadcast and the installed upcall,
/// the upcall split by the PDU type byte, and samples frames for replay.
class TracedEndpoint final : public urcgc::net::Endpoint {
 public:
  TracedEndpoint(urcgc::net::Endpoint& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), slot_(tracer.slot(inner.self())) {}

  [[nodiscard]] urcgc::ProcessId self() const override { return inner_.self(); }
  void set_upcall(UpcallFn fn) override;
  void send(urcgc::ProcessId dst, urcgc::wire::SharedBuffer payload) override;
  void broadcast(urcgc::wire::SharedBuffer payload) override;
  using Endpoint::send;
  using Endpoint::broadcast;

 private:
  urcgc::net::Endpoint& inner_;
  Tracer& tracer_;
  int slot_;
};

}  // namespace bench
