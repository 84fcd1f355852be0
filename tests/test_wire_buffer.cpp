#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "runtime/threaded.hpp"
#include "sim/simulation.hpp"
#include "wire/shared_buffer.hpp"

namespace urcgc::wire {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(SharedBuffer, TakeAdoptsStorageWithoutCopying) {
  auto v = bytes_of({1, 2, 3, 4});
  const std::uint8_t* storage = v.data();
  const BufferStats before = buffer_stats();
  const SharedBuffer buf = SharedBuffer::take(std::move(v));
  const BufferStats delta = buffer_stats() - before;
  EXPECT_EQ(buf.data(), storage);  // same heap block, not a duplicate
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(delta.allocations, 1u);
  EXPECT_EQ(delta.bytes_allocated, 4u);
  EXPECT_EQ(delta.bytes_copied, 0u);
}

TEST(SharedBuffer, CopyMaterializesAndCountsCopiedBytes) {
  const auto v = bytes_of({5, 6, 7});
  const BufferStats before = buffer_stats();
  const SharedBuffer buf = SharedBuffer::copy(v);
  const BufferStats delta = buffer_stats() - before;
  EXPECT_NE(buf.data(), v.data());
  EXPECT_EQ(buf, v);
  EXPECT_EQ(delta.allocations, 1u);
  EXPECT_EQ(delta.bytes_allocated, 3u);
  EXPECT_EQ(delta.bytes_copied, 3u);
}

TEST(SharedBuffer, CopiesAliasAndCountRefs) {
  const SharedBuffer a = SharedBuffer::take(bytes_of({9, 9}));
  EXPECT_EQ(a.use_count(), 1);
  const SharedBuffer b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(a.aliases(b));
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 2);
  EXPECT_EQ(a, b);
  // Aliasing is storage identity, not byte equality.
  const SharedBuffer c = SharedBuffer::take(bytes_of({9, 9}));
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a.aliases(c));
}

TEST(SharedBuffer, EmptyBufferHasNoStorage) {
  const BufferStats before = buffer_stats();
  const SharedBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ((buffer_stats() - before).allocations, 0u);
  EXPECT_EQ(empty, SharedBuffer{});
}

TEST(SharedBuffer, DetachCopyIsPrivateToTheCaller) {
  const SharedBuffer shared = SharedBuffer::take(bytes_of({1, 2, 3}));
  const SharedBuffer alias = shared;
  const BufferStats before = buffer_stats();
  std::vector<std::uint8_t> mine = shared.detach_copy();
  const BufferStats delta = buffer_stats() - before;
  mine[0] = 0xFF;
  // No other holder observes the mutation.
  EXPECT_EQ(shared, bytes_of({1, 2, 3}));
  EXPECT_EQ(alias, bytes_of({1, 2, 3}));
  EXPECT_EQ(delta.bytes_copied, 3u);
}

TEST(SharedBuffer, WithMutationLeavesOriginalUntouched) {
  const SharedBuffer original = SharedBuffer::take(bytes_of({10, 20, 30}));
  const SharedBuffer mutated = original.with_mutation(
      [](std::vector<std::uint8_t>& bytes) { bytes[1] = 99; });
  EXPECT_EQ(original, bytes_of({10, 20, 30}));
  EXPECT_EQ(mutated, bytes_of({10, 99, 30}));
  EXPECT_FALSE(original.aliases(mutated));
}

TEST(SharedBuffer, RvalueVectorConvertsImplicitly) {
  const auto sink = [](SharedBuffer buf) { return buf.size(); };
  EXPECT_EQ(sink(bytes_of({1, 2, 3, 4, 5})), 5u);
}

// ---- Fan-out behaviour on the subnet -----------------------------------

struct SimRig {
  explicit SimRig(int n, double loss, std::uint64_t seed = 7)
      : injector(
            [&] {
              fault::FaultPlan plan(n);
              plan.packet_loss(loss);
              return plan;
            }(),
            Rng(seed).fork(1)),
        network(sim, injector, {.min_latency = 1, .max_latency = 4},
                Rng(seed).fork(2)) {}

  sim::Simulation sim;
  fault::FaultInjector injector;
  net::Network network;
};

TEST(ZeroCopyFanOut, BroadcastSharesOneBufferAcrossAllDeliveries) {
  constexpr int kN = 8;
  SimRig rig(kN, /*loss=*/0.0);
  std::vector<net::Packet> received;
  for (ProcessId p = 0; p < kN; ++p) {
    rig.network.attach(p, [&](const net::Packet& packet) {
      received.push_back(packet);
    });
  }
  const SharedBuffer frame = SharedBuffer::take(bytes_of({1, 2, 3, 4}));
  const BufferStats before = buffer_stats();
  rig.network.broadcast(0, frame);
  rig.sim.run_until(100);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kN - 1));
  for (const net::Packet& packet : received) {
    EXPECT_TRUE(packet.payload.aliases(frame));
  }
  const BufferStats delta = buffer_stats() - before;
  EXPECT_EQ(delta.allocations, 0u);  // the whole fan-out allocated nothing
  EXPECT_EQ(delta.bytes_copied, 0u);
}

// Scripted traffic under 30 % loss: every delivered payload must equal the
// bytes the script built for its round, whichever copies were dropped. The
// first byte of each round's payload names the round, so a delivery can be
// checked on its own.

std::vector<std::uint8_t> sim_round_payload(RoundId round) {
  std::vector<std::uint8_t> payload(16 + round % 5);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(round + i);
  }
  return payload;
}

TEST(ZeroCopyFanOut, DeliversScriptedBytesUnderOmission) {
  constexpr int kN = 6;
  constexpr RoundId kRounds = 20;
  SimRig rig(kN, /*loss=*/0.3);
  std::vector<net::Packet> received;
  for (ProcessId p = 0; p < kN; ++p) {
    rig.network.attach(p, [&received](const net::Packet& packet) {
      received.push_back(packet);
    });
  }
  rig.sim.on_round([&rig](RoundId round) {
    if (round >= kRounds) return;
    rig.network.broadcast(static_cast<ProcessId>(round % kN),
                          sim_round_payload(round));
  });
  rig.sim.run_until(400);
  ASSERT_FALSE(received.empty());
  for (const net::Packet& packet : received) {
    ASSERT_FALSE(packet.payload.empty());
    const RoundId round = packet.payload.view()[0];
    ASSERT_LT(round, kRounds);
    EXPECT_EQ(packet.src, static_cast<ProcessId>(round % kN));
    EXPECT_NE(packet.dst, packet.src);
    EXPECT_EQ(packet.payload, sim_round_payload(round)) << "round " << round;
  }
  const net::NetStats stats = rig.network.stats();
  EXPECT_EQ(stats.packets_delivered, received.size());
  EXPECT_GT(stats.packets_dropped, 0u);
}

std::vector<std::uint8_t> threads_round_payload(RoundId round) {
  std::vector<std::uint8_t> payload(8);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(round * 17 + i);
  }
  return payload;
}

TEST(ZeroCopyFanOut, DeliversScriptedBytesOnThreadedBackend) {
  constexpr int kN = 4;
  constexpr RoundId kRounds = 15;
  rt::ThreadedConfig tc;
  tc.n = kN;
  tc.clock = rt::RoundClock(10);
  tc.tick_duration = std::chrono::nanoseconds(0);
  rt::ThreadedRuntime rt(tc);
  fault::FaultPlan plan(kN);
  plan.packet_loss(0.3);
  fault::FaultInjector injector(std::move(plan), Rng(5).fork(1));
  net::Network network(rt, injector, {.min_latency = 1, .max_latency = 4},
                       Rng(5).fork(2));
  // logs[p] is only ever touched by p's own thread; the run_until barrier
  // publishes the final contents to this thread.
  std::vector<std::vector<std::vector<std::uint8_t>>> logs(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    network.attach(p, [&logs, p](const net::Packet& packet) {
      logs[p].emplace_back(packet.payload.view().begin(),
                           packet.payload.view().end());
    });
  }
  rt.on_round(0, [&network](RoundId round) {
    if (round >= kRounds) return;
    network.broadcast(0, threads_round_payload(round));
  });
  rt.run_until(300);
  std::size_t delivered = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    for (const auto& bytes : logs[p]) {
      ASSERT_FALSE(bytes.empty());
      ASSERT_EQ(bytes[0] % 17, 0) << "destination " << p;
      const RoundId round = bytes[0] / 17;
      ASSERT_LT(round, kRounds);
      EXPECT_EQ(bytes, threads_round_payload(round))
          << "destination " << p << ", round " << round;
      ++delivered;
    }
  }
  EXPECT_TRUE(logs[0].empty()) << "the sender delivers its own copy locally";
  const net::NetStats stats = network.stats();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(stats.packets_delivered, delivered);
  EXPECT_GT(stats.packets_dropped, 0u);
}

}  // namespace
}  // namespace urcgc::wire
