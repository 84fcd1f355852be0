// Transport fragmentation/reassembly (paper Section 5: the transport is
// where urcgc data units are fragmented and assembled to fit the network
// packet size).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "wire/buffer.hpp"
#include "sim/simulation.hpp"

namespace urcgc::net {
namespace {

std::vector<std::uint8_t> pattern(std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  std::iota(payload.begin(), payload.end(), std::uint8_t{0});
  return payload;
}

struct Rig {
  explicit Rig(int n, fault::FaultPlan plan, TransportConfig tc)
      : injector(std::move(plan), Rng(101)),
        network(sim, injector, {.min_latency = 1, .max_latency = 4},
                Rng(102)) {
    for (ProcessId p = 0; p < n; ++p) {
      endpoints.push_back(
          std::make_unique<TransportEndpoint>(network, p, tc));
    }
  }

  sim::Simulation sim;
  fault::FaultInjector injector;
  Network network;
  std::vector<std::unique_ptr<TransportEndpoint>> endpoints;
};

TEST(Fragmentation, LargePayloadSplitAndReassembled) {
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  std::vector<std::uint8_t> got;
  int deliveries = 0;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t> bytes) {
        got.assign(bytes.begin(), bytes.end());
        ++deliveries;
      });
  const auto payload = pattern(350);  // 4 fragments at mtu=100
  rig.endpoints[0]->send(1, payload);
  rig.sim.run_until(1000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(rig.endpoints[0]->stats().fragmented_xfers, 1u);
  EXPECT_EQ(rig.endpoints[0]->stats().data_sent, 4u);
  EXPECT_EQ(rig.endpoints[1]->stats().reassemblies, 1u);
  EXPECT_EQ(rig.endpoints[1]->stats().acks_sent, 4u);
}

TEST(Fragmentation, ExactMultipleOfMtu) {
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  std::vector<std::uint8_t> got;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t> bytes) {
        got.assign(bytes.begin(), bytes.end());
      });
  const auto payload = pattern(200);  // exactly 2 fragments
  rig.endpoints[0]->send(1, payload);
  rig.sim.run_until(1000);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(rig.endpoints[0]->stats().data_sent, 2u);
}

TEST(Fragmentation, SmallPayloadNotFragmented) {
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  int deliveries = 0;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t>) { ++deliveries; });
  rig.endpoints[0]->send(1, pattern(99));
  rig.sim.run_until(1000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(rig.endpoints[0]->stats().fragmented_xfers, 0u);
  EXPECT_EQ(rig.endpoints[0]->stats().data_sent, 1u);
}

TEST(Fragmentation, EmptyPayloadStillDelivered) {
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  int deliveries = 0;
  std::size_t got_size = 99;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t> bytes) {
        ++deliveries;
        got_size = bytes.size();
      });
  rig.endpoints[0]->send(1, std::vector<std::uint8_t>{});
  rig.sim.run_until(1000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got_size, 0u);
}

TEST(Fragmentation, UpcallFramesCarryAnOwningBuffer) {
  // A single-fragment transfer's frame is the packet's own slice of the
  // datagram; a reassembled one becomes a buffer of its own. Either way
  // the receiver can keep it without copying.
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  std::vector<wire::Slice> kept;
  rig.endpoints[1]->set_upcall([&](ProcessId, wire::FrameRef frame) {
    EXPECT_NE(frame.owner(), nullptr);
    kept.push_back(frame.pin());
  });
  rig.endpoints[0]->send(1, pattern(60));
  rig.endpoints[0]->send(1, pattern(250));
  rig.sim.run_until(1000);
  ASSERT_EQ(kept.size(), 2u);
  std::sort(kept.begin(), kept.end(),
            [](const wire::Slice& a, const wire::Slice& b) {
              return a.size() < b.size();
            });
  EXPECT_EQ(kept[0], pattern(60));
  EXPECT_EQ(kept[1], pattern(250));
  // The single fragment still sits behind its transport header.
  EXPECT_GT(kept[0].owner().size(), kept[0].size());
  EXPECT_EQ(kept[1].owner().size(), kept[1].size());
}

TEST(Fragmentation, LostFragmentsRetransmittedSelectively) {
  fault::FaultPlan plan(2);
  plan.packet_loss(0.3);
  Rig rig(2, std::move(plan),
          {.max_retries = 30, .retry_interval = 10, .mtu = 50});
  std::vector<std::uint8_t> got;
  int deliveries = 0;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t> bytes) {
        got.assign(bytes.begin(), bytes.end());
        ++deliveries;
      });
  const auto payload = pattern(500);  // 10 fragments over a lossy subnet
  rig.endpoints[0]->send(1, payload);
  rig.sim.run_until(10000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, payload);
  EXPECT_GT(rig.endpoints[0]->stats().retransmissions, 0u);
  // Selective repeat: far fewer retransmissions than full-set resends
  // (10 fragments x 30 retries = 300 would be the naive worst case).
  EXPECT_LT(rig.endpoints[0]->stats().retransmissions, 100u);
}

TEST(Fragmentation, MulticastFragmentsToEveryDestination) {
  Rig rig(4, fault::FaultPlan(4), {.h_all_on_broadcast = true, .mtu = 64});
  std::vector<int> deliveries(4, 0);
  for (ProcessId p = 1; p < 4; ++p) {
    rig.endpoints[p]->set_upcall(
        [&deliveries, p](ProcessId, std::span<const std::uint8_t> bytes) {
          ++deliveries[p];
          EXPECT_EQ(bytes.size(), 200u);
        });
  }
  int confirmed = -1;
  rig.endpoints[0]->data_rq({1, 2, 3}, 3, pattern(200),
                            [&](int acks) { confirmed = acks; });
  rig.sim.run_until(5000);
  EXPECT_EQ(deliveries[1], 1);
  EXPECT_EQ(deliveries[2], 1);
  EXPECT_EQ(deliveries[3], 1);
  EXPECT_EQ(confirmed, 3);
}

TEST(Fragmentation, DuplicateFragmentsIgnored) {
  // Heavy loss forces many retransmissions; reassembly must deliver once
  // with intact content.
  fault::FaultPlan plan(2);
  plan.packet_loss(0.5);
  Rig rig(2, std::move(plan),
          {.max_retries = 60, .retry_interval = 10, .mtu = 40});
  int deliveries = 0;
  std::vector<std::uint8_t> got;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t> bytes) {
        ++deliveries;
        got.assign(bytes.begin(), bytes.end());
      });
  const auto payload = pattern(160);
  rig.endpoints[0]->send(1, payload);
  rig.sim.run_until(20000);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, payload);
}

TEST(Fragmentation, MalformedFragmentHeadersDropped) {
  Rig rig(2, fault::FaultPlan(2), {.mtu = 100});
  int deliveries = 0;
  rig.endpoints[1]->set_upcall(
      [&](ProcessId, std::span<const std::uint8_t>) { ++deliveries; });
  // index >= count
  urcgc::wire::Writer w;
  w.u8(0);  // kData
  w.u64(1);
  w.u16(5);
  w.u16(2);
  w.bytes(std::vector<std::uint8_t>{1, 2});
  rig.network.unicast(0, 1, std::move(w).take());
  // count == 0
  urcgc::wire::Writer w2;
  w2.u8(0);
  w2.u64(2);
  w2.u16(0);
  w2.u16(0);
  w2.bytes(std::vector<std::uint8_t>{});
  rig.network.unicast(0, 1, std::move(w2).take());
  rig.sim.run_until(100);
  EXPECT_EQ(deliveries, 0);
}

}  // namespace
}  // namespace urcgc::net
