#pragma once
// Per-process communication endpoints.
//
// Protocol entities (urcgc, CBCAST, Psync) talk through the Endpoint
// interface so they can be mounted either directly on the datagram subnet
// (the paper's h = 1 configuration, used for all headline experiments) or
// on top of the retransmitting Transport of Section 5.

#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "wire/slice.hpp"

namespace urcgc::net {

class Endpoint {
 public:
  /// Upcall: (source process, frame). The frame is valid only during the
  /// call. It carries the SharedBuffer holding the bytes when the endpoint
  /// has one, so a receiver can keep slices of it without copying; it
  /// converts to and from std::span<const std::uint8_t>, so upcalls and
  /// decorators written against bytes alone still work (a receiver then
  /// copies what it keeps).
  using UpcallFn = std::function<void(ProcessId, wire::FrameRef)>;

  virtual ~Endpoint() = default;

  [[nodiscard]] virtual ProcessId self() const = 0;
  virtual void set_upcall(UpcallFn fn) = 0;
  /// Payloads travel as ref-counted wire::SharedBuffer: serialize once,
  /// share the frame across the whole fan-out (rvalue byte vectors
  /// convert implicitly, without copying).
  virtual void send(ProcessId dst, wire::SharedBuffer payload) = 0;
  virtual void broadcast(wire::SharedBuffer payload) = 0;

  /// Byte-vector conveniences: adopt the bytes and forward. Overload
  /// resolution prefers these for vector/braced-list arguments, keeping
  /// legacy call sites source-compatible. (Derived classes re-expose them
  /// with `using Endpoint::send; using Endpoint::broadcast;`.)
  void send(ProcessId dst, std::vector<std::uint8_t> payload) {
    send(dst, wire::SharedBuffer::take(std::move(payload)));
  }
  void broadcast(std::vector<std::uint8_t> payload) {
    broadcast(wire::SharedBuffer::take(std::move(payload)));
  }
};

/// Endpoint mounted directly on the datagram subnetwork: no retransmission,
/// no ordering, no delivery guarantee — exactly the basic service the urcgc
/// protocol is designed to cope with.
class DatagramEndpoint final : public Endpoint {
 public:
  DatagramEndpoint(Network& network, ProcessId self);

  [[nodiscard]] ProcessId self() const override { return self_; }
  void set_upcall(UpcallFn fn) override { upcall_ = std::move(fn); }
  void send(ProcessId dst, wire::SharedBuffer payload) override;
  void broadcast(wire::SharedBuffer payload) override;
  using Endpoint::send;
  using Endpoint::broadcast;

 private:
  Network& network_;
  ProcessId self_;
  UpcallFn upcall_;
};

}  // namespace urcgc::net
