#pragma once
// Simulated datagram subnetwork.
//
// Multicast has n-unicast semantics (paper Section 5): one copy per
// destination, each copy independently subject to sender omission, subnet
// loss and receiver omission, each with its own latency draw. Latency is
// uniform in [min_latency, max_latency] ticks; experiments keep
// max_latency below the round length so that a message sent at a round
// boundary arrives before the next boundary, matching the paper's
// synchronous round assumption.
//
// The network depends on the abstract rt::Runtime only: on the simulator a
// copy is an event `latency` ticks ahead; on the threaded backend it lands
// in the destination's mailbox and is consumed by the destination's own
// thread. send_copy may be called from any execution context — the
// internal mutex guards the rng and the counters, never the upcall.
//
// Fan-out is zero-copy: every destination's in-flight copy shares the
// sender's one wire::SharedBuffer (n-unicast still means n datagrams, n
// latency draws and n fault decisions — only the payload storage is
// shared).

#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "net/packet.hpp"
#include "obs/registry.hpp"
#include "runtime/runtime.hpp"
#include "wire/shared_buffer.hpp"

namespace urcgc::net {

struct NetConfig {
  Tick min_latency = 1;
  Tick max_latency = 9;
  /// Optional observability registry. Send-path counters land on the
  /// sender's shard (send_copy executes in the sender's context), delivery
  /// and in-flight-drop counters on the receiver's shard (the delivery
  /// event executes in the destination's context) — so the per-shard
  /// ownership rule holds without any extra locking.
  obs::Registry* metrics = nullptr;
};

/// Upcall invoked when a packet reaches a (non-crashed) destination.
using DeliveryFn = std::function<void(const Packet&)>;

class Network {
 public:
  Network(rt::Runtime& runtime, fault::FaultInjector& faults, NetConfig config,
          Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the delivery upcall for process `id`. Must be called
  /// exactly once per process, before any traffic flows to it; duplicate
  /// or out-of-range registration is a hard protocol-assembly error.
  void attach(ProcessId id, DeliveryFn fn);

  [[nodiscard]] std::size_t group_size() const { return endpoints_.size(); }

  /// Sends one datagram copy from src to dst.
  void unicast(ProcessId src, ProcessId dst, wire::SharedBuffer payload);

  /// Sends one copy to every destination in `dsts` (n-unicast); all copies
  /// share `payload`'s storage.
  void multicast(ProcessId src, std::span<const ProcessId> dsts,
                 const wire::SharedBuffer& payload);

  /// Sends to every attached process except src, sharing one payload
  /// buffer across the whole fan-out. The paper's processes deliver their
  /// own messages locally, without a network hop.
  void broadcast(ProcessId src, const wire::SharedBuffer& payload);

  /// Byte-vector conveniences (tests, scripted traffic): adopt the bytes
  /// into a SharedBuffer and forward. Preferred by overload resolution for
  /// vector/braced-list arguments, so legacy call sites stay source-level
  /// identical.
  void unicast(ProcessId src, ProcessId dst,
               std::vector<std::uint8_t> payload) {
    unicast(src, dst, wire::SharedBuffer::take(std::move(payload)));
  }
  void multicast(ProcessId src, std::span<const ProcessId> dsts,
                 std::vector<std::uint8_t> payload) {
    multicast(src, dsts, wire::SharedBuffer::take(std::move(payload)));
  }
  void broadcast(ProcessId src, std::vector<std::uint8_t> payload) {
    broadcast(src, wire::SharedBuffer::take(std::move(payload)));
  }

  /// Snapshot of the traffic counters. Thread-safe; on the threaded
  /// backend call it from the driver context (e.g. after the run or at a
  /// round boundary) for a consistent picture.
  [[nodiscard]] NetStats stats() const;
  [[nodiscard]] fault::FaultInjector& faults() { return faults_; }
  [[nodiscard]] rt::Runtime& runtime() { return rt_; }

 private:
  void send_copy(ProcessId src, ProcessId dst, wire::SharedBuffer payload);
  /// Arrival half of a delivery: the crash/partition re-check at arrival
  /// time, delivery accounting, and the endpoint upcall. Runs on the
  /// destination's execution context — posted as a closure on the
  /// in-memory backends, invoked by the subnet rx path when the runtime
  /// exposes a rt::DatagramSubnet.
  void deliver(const Packet& p);

  rt::Runtime& rt_;
  fault::FaultInjector& faults_;
  NetConfig config_;
  mutable std::mutex mu_;  // guards rng_ and stats_
  Rng rng_;
  std::vector<DeliveryFn> endpoints_;
  NetStats stats_;

  obs::Metric m_sent_{};
  obs::Metric m_bytes_sent_{};
  obs::Metric m_dropped_{};
  obs::Metric m_delivered_{};
  obs::Metric m_bytes_delivered_{};
};

}  // namespace urcgc::net
