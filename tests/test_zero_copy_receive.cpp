// Zero-copy receive: a received application message keeps a slice of the
// frame it arrived in (and its deps inline) instead of copying either out,
// so the receivers of a broadcast share one frame, and a stored message
// pins that frame until it is purged.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "alloc_guard.hpp"
#include "common/rng.hpp"
#include "core/mt_entity.hpp"
#include "core/pdu.hpp"
#include "core/process.hpp"
#include "net/endpoint.hpp"
#include "runtime/threaded.hpp"
#include "sim/simulation.hpp"
#include "wire/slice.hpp"

namespace urcgc::core {
namespace {

/// Sixteen bytes that name the message they belong to.
std::vector<std::uint8_t> payload_for(const Mid& mid) {
  std::vector<std::uint8_t> payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(mid.origin * 31 + mid.seq * 7 +
                                           static_cast<Seq>(i));
  }
  return payload;
}

/// Endpoint decorator for one member. It hands the member's frames through
/// with their owner, or (span_only) as bytes alone, the way a decorator
/// written against spans does; it lets a test inject frames and watch the
/// member's broadcasts.
class PassEndpoint final : public net::Endpoint {
 public:
  PassEndpoint(std::unique_ptr<net::Endpoint> inner, bool span_only)
      : inner_(std::move(inner)), span_only_(span_only) {}

  [[nodiscard]] ProcessId self() const override { return inner_->self(); }
  void set_upcall(UpcallFn fn) override {
    upcall_ = std::move(fn);
    if (span_only_) {
      inner_->set_upcall(
          [this](ProcessId src, std::span<const std::uint8_t> bytes) {
            upcall_(src, bytes);
          });
    } else {
      inner_->set_upcall(
          [this](ProcessId src, wire::FrameRef frame) { upcall_(src, frame); });
    }
  }
  void send(ProcessId dst, wire::SharedBuffer payload) override {
    inner_->send(dst, std::move(payload));
  }
  void broadcast(wire::SharedBuffer payload) override {
    if (on_broadcast) on_broadcast(payload);
    inner_->broadcast(std::move(payload));
  }
  using Endpoint::broadcast;
  using Endpoint::send;

  void inject(ProcessId src, wire::FrameRef frame) { upcall_(src, frame); }

  std::function<void(const wire::SharedBuffer&)> on_broadcast;

 private:
  std::unique_ptr<net::Endpoint> inner_;
  bool span_only_;
  UpcallFn upcall_;
};

/// A sim group whose members talk through PassEndpoints; member
/// `span_only` (if any) sees bytes without their owner.
struct Group {
  explicit Group(const Config& config, ProcessId span_only = kNoProcess)
      : injector(fault::FaultPlan(config.n), Rng(61)),
        network(sim, injector, {.min_latency = 5, .max_latency = 9},
                Rng(62)),
        generated(static_cast<std::size_t>(config.n), 0) {
    for (ProcessId p = 0; p < config.n; ++p) {
      endpoints.push_back(std::make_unique<PassEndpoint>(
          std::make_unique<net::DatagramEndpoint>(network, p),
          p == span_only));
      processes.push_back(std::make_unique<UrcgcProcess>(
          config, p, sim, *endpoints.back(), injector));
    }
    for (auto& process : processes) process->start();
  }

  UrcgcProcess& at(ProcessId p) { return *processes[p]; }

  /// Runs `count` subruns; each queues `messages` payloads, round robin.
  void run_subruns(int count, int messages) {
    for (int i = 0; i < count; ++i) {
      for (int m = 0; m < messages; ++m) submit(next_sender++ % size());
      sim.run_until(sim.now() + sim.clock().ticks_per_subrun());
    }
  }
  /// Queues p's next message. Peers generate their queue in order from
  /// seq 1, so its payload names the seq it will get.
  void submit(ProcessId p) {
    const Mid mid{p, ++generated[static_cast<std::size_t>(p)]};
    ASSERT_TRUE(at(p).data_rq(payload_for(mid)));
  }
  [[nodiscard]] int size() const { return static_cast<int>(processes.size()); }

  sim::Simulation sim;
  fault::FaultInjector injector;
  net::Network network;
  std::vector<Seq> generated;
  std::vector<std::unique_ptr<PassEndpoint>> endpoints;
  std::vector<std::unique_ptr<UrcgcProcess>> processes;
  int next_sender = 0;
};

Config config_of(int n, CausalityMode causality) {
  Config config;
  config.n = n;
  config.causality = causality;
  return config;
}

/// The kAppData frame of origin's next message, with `deps`.
wire::SharedBuffer next_frame(Group& g, ProcessId origin,
                              std::vector<Mid> deps) {
  AppMessage msg;
  msg.mid = {origin, g.generated[static_cast<std::size_t>(origin)] + 1};
  msg.deps = deps;
  msg.generated_at = g.sim.now();
  msg.payload = payload_for(msg.mid);
  return encode_pdu(msg);
}

/// Traffic, then enough quiet subruns that every message is stable and
/// purged: the pools and scratch buffers have grown to the working set.
void warm_up(Group& g) {
  g.run_subruns(30, 3);
  g.run_subruns(12, 0);
}

TEST(ZeroCopyReceive, InOrderAppFrameAllocatesNothingOnAWarmedGroup) {
  Group g(config_of(4, CausalityMode::kIntermediate));
  warm_up(g);
  const UrcgcProcess& member = g.at(1);
  // The warm state: histories purged (free slots in the pool) and the
  // processing log with room for one more entry.
  ASSERT_EQ(member.mt().history_size(), 0u);
  ASSERT_GT(member.mt().history().slot_capacity(), 0u);
  if (member.mt().processing_log().size() ==
      member.mt().processing_log().capacity()) {
    const Seq seq = g.generated[2] + 1;
    g.endpoints[1]->inject(2, next_frame(g, 2, {{2, seq - 1}}));
    ++g.generated[2];
  }
  const Seq seq = g.generated[2] + 1;
  const wire::SharedBuffer frame = next_frame(g, 2, {{2, seq - 1}});
  std::uint64_t allocations = 0;
  {
    testsupport::AllocationCapGuard guard(0);
    const std::uint64_t before = testsupport::thread_allocations();
    g.endpoints[1]->inject(2, wire::FrameRef(frame));
    allocations = testsupport::thread_allocations() - before;
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(member.mt().prefix(2), seq);
  // The stored copy is the frame's bytes, not a copy of them.
  const AppMessage* stored = member.mt().history().find({2, seq});
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->payload.owner().aliases(frame));
  EXPECT_EQ(stored->payload, payload_for({2, seq}));
  EXPECT_FALSE(stored->deps.spilled());
}

TEST(ZeroCopyReceive, DepsBeyondInlineCapacityCostOneAllocation) {
  // Under the general interpretation a message carries exactly what the
  // user declared: here one dependency per other origin, more than
  // DepList holds inline, so the decoder takes one block for them.
  Group g(config_of(4, CausalityMode::kGeneral));
  warm_up(g);
  const UrcgcProcess& member = g.at(1);
  ASSERT_EQ(member.mt().history_size(), 0u);
  std::vector<Mid> deps;
  for (ProcessId q : {0, 1, 3}) {
    ASSERT_GE(member.mt().prefix(q), 1);
    deps.push_back({q, member.mt().prefix(q)});
  }
  ASSERT_GT(deps.size(), causal::DepList::kInline);
  if (member.mt().processing_log().size() ==
      member.mt().processing_log().capacity()) {
    g.endpoints[1]->inject(2, next_frame(g, 2, {}));
    ++g.generated[2];
  }
  const Seq seq = g.generated[2] + 1;
  const wire::SharedBuffer frame = next_frame(g, 2, deps);
  std::uint64_t allocations = 0;
  {
    testsupport::AllocationCapGuard guard(deps.size() * sizeof(Mid));
    const std::uint64_t before = testsupport::thread_allocations();
    g.endpoints[1]->inject(2, wire::FrameRef(frame));
    allocations = testsupport::thread_allocations() - before;
  }
  EXPECT_EQ(allocations, 1u);
  const AppMessage* stored = member.mt().history().find({2, seq});
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->deps.spilled());
  EXPECT_EQ(stored->deps, deps);
}

TEST(ZeroCopyReceive, BroadcastFrameIsReleasedOnceEveryMemberPurgedIt) {
  Group g(config_of(4, CausalityMode::kIntermediate));
  wire::SharedBuffer captured;
  g.endpoints[0]->on_broadcast = [&](const wire::SharedBuffer& frame) {
    if (captured.empty() &&
        frame.view()[0] == static_cast<std::uint8_t>(PduType::kAppData)) {
      captured = frame;
    }
  };
  std::vector<int> pinned(4, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    g.at(p).set_deliver_ind([&, p](const AppMessage& msg) {
      if (msg.mid == Mid{0, 1}) {
        pinned[p] = msg.payload.owner().aliases(captured) ? 1 : -1;
      }
    });
  }
  g.submit(0);
  g.run_subruns(2, 0);
  ASSERT_FALSE(captured.empty());
  // Every member, the sender included, stored a slice of the one frame.
  EXPECT_EQ(pinned, (std::vector<int>{1, 1, 1, 1}));
  g.run_subruns(10, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(g.at(p).mt().history().contains({0, 1})) << "member " << p;
  }
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(ZeroCopyReceive, RecoverRspFrameLivesWhileARecoveredMessageIsStored) {
  Config config;
  config.n = 2;
  MtEntity source(config, 0, nullptr);
  for (Seq s = 1; s <= 5; ++s) {
    AppMessage msg;
    msg.mid = {1, s};
    if (s > 1) msg.deps = {{1, s - 1}};
    msg.payload = payload_for(msg.mid);
    ASSERT_EQ(source.submit(std::move(msg), s),
              MtEntity::SubmitResult::kProcessed);
  }
  wire::SharedBuffer frame = source.serve_recovery(RecoverRq{1, 1, 1, 5});
  MtEntity behind(config, 1, nullptr);
  {
    auto pdu = decode_pdu(wire::Slice(frame), nullptr);
    ASSERT_TRUE(pdu.has_value());
    for (AppMessage& msg : std::get<RecoverRsp>(pdu.value()).messages) {
      EXPECT_EQ(behind.submit(std::move(msg), 9),
                MtEntity::SubmitResult::kProcessed);
    }
  }
  // Our handle plus the five stored messages.
  EXPECT_EQ(frame.use_count(), 6);
  const wire::SharedBuffer watch = frame;
  frame = wire::SharedBuffer{};
  // Purging three leaves two messages pinning the batch.
  EXPECT_EQ(behind.clean({kNoSeq, 3}), 3u);
  EXPECT_EQ(watch.use_count(), 3);
  for (Seq s : {4, 5}) {
    const AppMessage* stored = behind.history().find({1, s});
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->payload, payload_for({1, s}));
  }
  EXPECT_EQ(behind.clean({kNoSeq, 5}), 2u);
  EXPECT_EQ(watch.use_count(), 1);
}

TEST(ZeroCopyReceive, SpanOnlyDecoratorCopiesAndMessagesOutliveTheUpcall) {
  // Member 1 receives through a decorator that passes bytes alone: the
  // process copies each application frame once, and what it delivers and
  // stores stays valid after the upcall (and the datagram) are gone.
  Group g(config_of(4, CausalityMode::kIntermediate), /*span_only=*/1);
  std::vector<std::vector<std::pair<Mid, wire::Slice>>> kept(4);
  for (ProcessId p = 0; p < 4; ++p) {
    g.at(p).set_deliver_ind([&, p](const AppMessage& msg) {
      kept[p].emplace_back(msg.mid, msg.payload);
    });
  }
  g.run_subruns(12, 3);
  g.run_subruns(2, 0);
  ASSERT_FALSE(kept[1].empty());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(kept[p].size(), kept[0].size()) << "member " << p;
    for (const auto& [mid, payload] : kept[p]) {
      EXPECT_EQ(payload, payload_for(mid)) << "member " << p;
    }
  }
  // Members 2 and 3 share the sender's frame; member 1 holds a copy.
  std::size_t checked = 0;
  for (const auto& [mid, payload] : kept[1]) {
    if (mid.origin != 0) continue;
    for (const auto& [mid2, payload2] : kept[2]) {
      if (mid2 != mid) continue;
      for (const auto& [mid3, payload3] : kept[3]) {
        if (mid3 != mid) continue;
        EXPECT_TRUE(payload2.owner().aliases(payload3.owner()));
        EXPECT_FALSE(payload.owner().aliases(payload2.owner()));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ZeroCopyReceive, ThreadedBackendSharesFramesAcrossWorkers) {
  // Each member's thread stores slices of frames other threads encoded,
  // and purges (unpins) them on its own schedule: the frames' refcounts
  // move on several threads at once.
  constexpr int kN = 4;
  constexpr RoundId kTrafficRounds = 60;
  rt::ThreadedConfig tc;
  tc.n = kN;
  tc.clock = rt::RoundClock(10);
  tc.tick_duration = std::chrono::nanoseconds(0);
  rt::ThreadedRuntime rt(tc);
  fault::FaultInjector injector(fault::FaultPlan(kN), Rng(71));
  net::Network network(rt, injector, {.min_latency = 1, .max_latency = 4},
                       Rng(72));
  Config config = config_of(kN, CausalityMode::kIntermediate);
  config.max_subruns_in_flight = 4;
  std::vector<std::unique_ptr<net::DatagramEndpoint>> endpoints;
  std::vector<std::unique_ptr<UrcgcProcess>> processes;
  // Written only by member p's own thread; the run_until barrier publishes
  // them to this one.
  std::vector<std::uint64_t> delivered(kN, 0);
  std::vector<std::uint64_t> corrupt(kN, 0);
  std::vector<Seq> generated(kN, 0);
  for (ProcessId p = 0; p < kN; ++p) {
    endpoints.push_back(std::make_unique<net::DatagramEndpoint>(network, p));
    processes.push_back(std::make_unique<UrcgcProcess>(
        config, p, rt, *endpoints.back(), injector));
    processes.back()->set_deliver_ind([&, p](const AppMessage& msg) {
      ++delivered[p];
      if (!(msg.payload == payload_for(msg.mid))) ++corrupt[p];
    });
  }
  for (ProcessId p = 0; p < kN; ++p) {
    processes[p]->start();
    rt.on_round(p, [&, p](RoundId round) {
      if (round >= kTrafficRounds) return;
      const Mid mid{p, ++generated[p]};
      (void)processes[p]->data_rq(payload_for(mid));
    });
  }
  rt.run_until(tc.clock.ticks_per_round() * (kTrafficRounds + 40));
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_FALSE(processes[p]->halted()) << "member " << p;
    EXPECT_EQ(delivered[p], static_cast<std::uint64_t>(kN * kTrafficRounds))
        << "member " << p;
    EXPECT_EQ(corrupt[p], 0u) << "member " << p;
  }
}

}  // namespace
}  // namespace urcgc::core
