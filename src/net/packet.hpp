#pragma once
// Raw datagram representation plus network-level accounting.
//
// A Packet stays POD-ish on purpose: three scalar fields plus one
// ref-counted payload handle. Copying a Packet bumps a refcount; it never
// duplicates the payload bytes, so an n-member broadcast shares one
// serialized frame across all n in-flight copies and deliveries. The
// payload is immutable; mutation (fault injection only) goes through the
// wire::SharedBuffer COW API.

#include <cstdint>

#include "common/types.hpp"
#include "wire/shared_buffer.hpp"

namespace urcgc::net {

struct Packet {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Tick sent_at = 0;
  wire::SharedBuffer payload;

  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

struct NetStats {
  std::uint64_t packets_sent = 0;       // copies handed to the subnet
  std::uint64_t packets_delivered = 0;  // copies that reached a live process
  std::uint64_t packets_dropped = 0;    // omission/loss/crash drops
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

}  // namespace urcgc::net
