#include "net/network.hpp"

#include <utility>

#include "common/assert.hpp"
#include "runtime/subnet.hpp"

namespace urcgc::net {

Network::Network(rt::Runtime& runtime, fault::FaultInjector& faults,
                 NetConfig config, Rng rng)
    : rt_(runtime), faults_(faults), config_(config), rng_(rng),
      endpoints_(faults.group_size()) {
  URCGC_ASSERT(config_.min_latency >= 0);
  URCGC_ASSERT(config_.max_latency >= config_.min_latency);
  if (config_.metrics != nullptr) {
    m_sent_ = config_.metrics->counter("net.packets_sent");
    m_bytes_sent_ = config_.metrics->counter("net.bytes_sent");
    m_dropped_ = config_.metrics->counter("net.packets_dropped");
    m_delivered_ = config_.metrics->counter("net.packets_delivered");
    m_bytes_delivered_ = config_.metrics->counter("net.bytes_delivered");
  }
}

void Network::attach(ProcessId id, DeliveryFn fn) {
  URCGC_ASSERT_MSG(id >= 0 && static_cast<std::size_t>(id) < endpoints_.size(),
                   "attach: ProcessId outside the configured group");
  URCGC_ASSERT_MSG(!endpoints_[id], "attach: endpoint registered twice");
  URCGC_ASSERT_MSG(static_cast<bool>(fn), "attach: empty delivery upcall");
  endpoints_[id] = std::move(fn);
  // On a runtime with a real subnet, arrivals come back through the
  // socket rx path instead of posted closures: register the inverse hop.
  if (rt::DatagramSubnet* subnet = rt_.datagram_subnet()) {
    subnet->bind_rx(id, [this, id](ProcessId src, Tick sent_at,
                                   wire::SharedBuffer payload) {
      deliver(Packet{src, id, sent_at, std::move(payload)});
    });
  }
}

NetStats Network::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Network::send_copy(ProcessId src, ProcessId dst,
                        wire::SharedBuffer payload) {
  URCGC_ASSERT(dst >= 0 && static_cast<std::size_t>(dst) < endpoints_.size());
  const Tick sent_at = rt_.now();
  Tick latency;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.packets_sent;
    stats_.bytes_sent += payload.size();

    // Sender omission is evaluated per copy: the paper's send is not an
    // indivisible action, so a faulty sender may reach only a subset of the
    // destinations of one multicast.
    if (faults_.partitioned(src, dst, sent_at) ||
        faults_.drop_on_send(src, sent_at) ||
        faults_.drop_on_hop(dst, sent_at)) {
      ++stats_.packets_dropped;
      if (config_.metrics != nullptr) {
        config_.metrics->add(src, m_sent_);
        config_.metrics->add(src, m_bytes_sent_, payload.size());
        config_.metrics->add(src, m_dropped_);
      }
      return;
    }
    latency = rng_.uniform_range(config_.min_latency, config_.max_latency);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->add(src, m_sent_);
    config_.metrics->add(src, m_bytes_sent_, payload.size());
  }

  // Every fault and latency decision has been drawn above, on the sender
  // side, in the same order on every backend. From here only bytes move:
  // through a real subnet when the runtime exposes one, otherwise as a
  // posted closure.
  if (rt::DatagramSubnet* subnet = rt_.datagram_subnet()) {
    subnet->send(src, dst, sent_at, sent_at + latency, std::move(payload));
    return;
  }
  Packet packet{src, dst, sent_at, std::move(payload)};
  rt_.post(dst, latency,
           [this, p = std::move(packet)]() mutable { deliver(p); });
}

void Network::deliver(const Packet& p) {
  // A destination that crashed while the packet was in flight never sees
  // it (the NIC of a fail-stop process is dead). Likewise a partition
  // that activated while the packet was in flight severs it: the paper's
  // partitions cut links, not just send attempts, and this check is what
  // makes the real-time backends (whose deliveries run long after the
  // send-time check) honor Partition::active() at all.
  if (faults_.is_crashed(p.dst, rt_.now()) ||
      faults_.partitioned(p.src, p.dst, rt_.now())) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.packets_dropped;
    }
    if (config_.metrics != nullptr) {
      config_.metrics->add(p.dst, m_dropped_);
    }
    return;
  }
  URCGC_ASSERT_MSG(static_cast<bool>(endpoints_[p.dst]),
                   "delivery to unattached endpoint");
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.packets_delivered;
    stats_.bytes_delivered += p.size_bytes();
  }
  if (config_.metrics != nullptr) {
    config_.metrics->add(p.dst, m_delivered_);
    config_.metrics->add(p.dst, m_bytes_delivered_, p.size_bytes());
  }
  // Upcall outside the lock: the receiver may immediately send.
  endpoints_[p.dst](p);
}

void Network::unicast(ProcessId src, ProcessId dst,
                      wire::SharedBuffer payload) {
  send_copy(src, dst, std::move(payload));
}

void Network::multicast(ProcessId src, std::span<const ProcessId> dsts,
                        const wire::SharedBuffer& payload) {
  for (ProcessId dst : dsts) {
    send_copy(src, dst, payload);
  }
}

void Network::broadcast(ProcessId src, const wire::SharedBuffer& payload) {
  for (ProcessId dst = 0; static_cast<std::size_t>(dst) < endpoints_.size();
       ++dst) {
    if (dst == src) continue;
    send_copy(src, dst, payload);
  }
}

}  // namespace urcgc::net
