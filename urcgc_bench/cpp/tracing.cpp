#include "tracing.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <variant>

#include "core/pdu.hpp"

namespace bench {

using urcgc::ProcessId;
using urcgc::RoundId;
using urcgc::Tick;
using urcgc::core::PduType;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  std::int64_t start = 0;
  std::int64_t child = 0;
  Tracer* tracer = nullptr;
  int slot = 0;
  Layer layer = Layer::kRuntimeTask;
};

constexpr int kMaxDepth = 64;
thread_local std::array<Frame, kMaxDepth> t_stack;
thread_local int t_depth = 0;

bool is_rx(Layer layer) {
  return layer >= Layer::kRxApp && layer <= Layer::kRxOther;
}

Layer rx_layer(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return Layer::kRxOther;
  switch (static_cast<PduType>(bytes[0])) {
    case PduType::kAppData: return Layer::kRxApp;
    case PduType::kRequest:
    case PduType::kRequestDelta: return Layer::kRxRequest;
    case PduType::kDecision:
    case PduType::kDecisionDelta: return Layer::kRxDecision;
    case PduType::kRecoverRq: return Layer::kRxRecoverRq;
    case PduType::kRecoverRsp: return Layer::kRxRecoverRsp;
    default: return Layer::kRxOther;
  }
}

/// Replayable kinds are the full frames only; delta frames need the
/// receiver's anchor cache and are covered by the core.rx_* spans.
int frame_kind(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return -1;
  switch (static_cast<PduType>(bytes[0])) {
    case PduType::kAppData: return static_cast<int>(FrameKind::kApp);
    case PduType::kRequest: return static_cast<int>(FrameKind::kRequest);
    case PduType::kDecision: return static_cast<int>(FrameKind::kDecision);
    case PduType::kRecoverRsp:
      return static_cast<int>(FrameKind::kRecoverRsp);
    default: return -1;
  }
}

/// Median ns per item of `pass`, repeated until at least 5 passes and
/// 5 ms have gone by.
template <typename Fn>
double time_per_item(std::size_t items, Fn&& pass) {
  std::vector<double> samples;
  const std::int64_t begin = now_ns();
  while (samples.size() < 5 || now_ns() - begin < 5'000'000) {
    const std::int64_t t0 = now_ns();
    pass();
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(items));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

volatile std::size_t g_replay_sink = 0;

}  // namespace

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    self_ns[i] += o.self_ns[i];
    calls[i] += o.calls[i];
  }
  top_ns += o.top_ns;
  thread_cpu_ns += o.thread_cpu_ns;
  return *this;
}

LayerTotals LayerTotals::operator-(const LayerTotals& o) const {
  LayerTotals d;
  for (std::size_t i = 0; i < kLayers; ++i) {
    d.self_ns[i] = self_ns[i] - o.self_ns[i];
    d.calls[i] = calls[i] - o.calls[i];
  }
  d.top_ns = top_ns - o.top_ns;
  d.thread_cpu_ns = thread_cpu_ns - o.thread_cpu_ns;
  return d;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Tracer::Tracer(int members, std::size_t capture_per_kind)
    : members_(members),
      capture_per_kind_(capture_per_kind),
      totals_(static_cast<std::size_t>(members) + 1),
      frames_(static_cast<std::size_t>(members) + 1) {}

LayerTotals Tracer::totals() const {
  LayerTotals sum;
  for (const LayerTotals& t : totals_) sum += t;
  return sum;
}

void Tracer::capture(int slot, std::span<const std::uint8_t> bytes) {
  if (!capturing_) return;
  const int kind = frame_kind(bytes);
  if (kind < 0) return;
  auto& sample =
      frames_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(kind)];
  if (sample.size() < capture_per_kind_) {
    sample.emplace_back(bytes.begin(), bytes.end());
  }
}

Tracer::Replay Tracer::replay() const {
  Replay out;
  std::size_t sink = 0;
  for (std::size_t kind = 0; kind < kFrameKinds; ++kind) {
    std::vector<const std::vector<std::uint8_t>*> frames;
    for (const auto& per_slot : frames_) {
      for (const auto& frame : per_slot[kind]) frames.push_back(&frame);
    }
    std::vector<urcgc::core::Pdu> pdus;
    for (const auto* frame : frames) {
      auto pdu = urcgc::core::decode_pdu(*frame);
      if (pdu) pdus.push_back(std::move(pdu).value());
    }
    if (pdus.size() != frames.size() || frames.empty()) continue;
    out.decode_ns[kind] = time_per_item(frames.size(), [&] {
      for (const auto* frame : frames) {
        sink += urcgc::core::decode_pdu(*frame).has_value() ? 1 : 0;
      }
    });
    out.encode_ns[kind] = time_per_item(pdus.size(), [&] {
      for (const auto& pdu : pdus) {
        std::visit([&](const auto& p) { sink += urcgc::core::encode_pdu(p).size(); },
                   pdu);
      }
    });
  }
  g_replay_sink = sink;
  return out;
}

Span::Span(Tracer& tracer, int slot, Layer layer) {
  if (t_depth == kMaxDepth) {
    std::fprintf(stderr, "span stack overflow\n");
    std::abort();
  }
  // A runtime closure that turns out to carry a datagram to an endpoint is
  // network delivery, not a runtime timer.
  if (t_depth > 0 && is_rx(layer) &&
      t_stack[t_depth - 1].layer == Layer::kRuntimeTask) {
    t_stack[t_depth - 1].layer = Layer::kNetDeliver;
  }
  t_stack[t_depth++] = Frame{now_ns(), 0, &tracer, slot, layer};
}

Span::~Span() {
  const Frame& f = t_stack[--t_depth];
  const std::int64_t duration = now_ns() - f.start;
  LayerTotals& totals = f.tracer->totals_of(f.slot);
  const auto layer = static_cast<std::size_t>(f.layer);
  totals.self_ns[layer] += static_cast<std::uint64_t>(duration - f.child);
  totals.calls[layer] += 1;
  if (t_depth > 0) {
    t_stack[t_depth - 1].child += duration;
  } else {
    totals.top_ns += static_cast<std::uint64_t>(duration);
  }
}

void TracedRuntime::post(ProcessId owner, Tick delay, urcgc::rt::EventFn fn) {
  tracer_.count_post();
  inner_.post(owner, delay,
              [&tracer = tracer_, slot = tracer_.slot(owner),
               fn = std::move(fn)] {
                Span span(tracer, slot, Layer::kRuntimeTask);
                fn();
              });
}

void TracedRuntime::on_round(ProcessId owner,
                             urcgc::rt::RoundHandler handler) {
  const int slot = tracer_.slot(owner);
  const bool member = owner != urcgc::kNoProcess;
  inner_.on_round(owner, [&tracer = tracer_, slot, member,
                          sample_cpu = sample_thread_cpu_,
                          handler = std::move(handler)](RoundId r) {
    if (member && sample_cpu) tracer.totals_of(slot).thread_cpu_ns = thread_cpu_ns();
    const Layer layer =
        !member ? Layer::kWorkload
                : (urcgc::rt::RoundClock::is_request_round(r)
                       ? Layer::kRequestRound
                       : Layer::kDecisionRound);
    Span span(tracer, slot, layer);
    handler(r);
  });
}

void TracedEndpoint::set_upcall(UpcallFn fn) {
  inner_.set_upcall([this, fn = std::move(fn)](
                        ProcessId src, std::span<const std::uint8_t> bytes) {
    tracer_.capture(slot_, bytes);
    Span span(tracer_, slot_, rx_layer(bytes));
    fn(src, bytes);
  });
}

void TracedEndpoint::send(ProcessId dst, urcgc::wire::SharedBuffer payload) {
  Span span(tracer_, slot_, Layer::kNetSend);
  inner_.send(dst, std::move(payload));
}

void TracedEndpoint::broadcast(urcgc::wire::SharedBuffer payload) {
  Span span(tracer_, slot_, Layer::kNetSend);
  inner_.broadcast(std::move(payload));
}

}  // namespace bench
