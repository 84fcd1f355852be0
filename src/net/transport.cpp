#include "net/transport.hpp"

#include <utility>

#include "common/assert.hpp"
#include "wire/buffer.hpp"

namespace urcgc::net {

namespace {

constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;

}  // namespace

TransportEndpoint::TransportEndpoint(Network& network, ProcessId self,
                                     TransportConfig config)
    : network_(network), self_(self), config_(config) {
  network_.attach(self_, [this](const Packet& packet) { on_packet(packet); });
}

wire::SharedBuffer TransportEndpoint::frame_fragment(
    std::uint64_t xfer_id, std::uint16_t index, std::uint16_t count,
    std::span<const std::uint8_t> fragment) const {
  wire::Writer w(fragment.size() + 20);
  w.u8(kData);
  w.u64(xfer_id);
  w.u16(index);
  w.u16(count);
  w.bytes(fragment);
  return std::move(w).take();
}

void TransportEndpoint::send(ProcessId dst, wire::SharedBuffer payload) {
  data_rq({dst}, 1, std::move(payload));
}

void TransportEndpoint::broadcast(wire::SharedBuffer payload) {
  std::vector<ProcessId> dsts;
  for (ProcessId p = 0;
       static_cast<std::size_t>(p) < network_.group_size(); ++p) {
    if (p != self_) dsts.push_back(p);
  }
  const int h =
      config_.h_all_on_broadcast ? static_cast<int>(dsts.size()) : 1;
  data_rq(std::move(dsts), h, std::move(payload));
}

void TransportEndpoint::data_rq(std::vector<ProcessId> dsts, int h,
                                wire::SharedBuffer payload,
                                ConfirmFn confirm) {
  URCGC_ASSERT(h >= 1 && static_cast<std::size_t>(h) <= dsts.size());
  const std::uint64_t xfer_id = next_xfer_++;

  Xfer xfer;
  xfer.dsts = std::move(dsts);
  xfer.h = h;
  xfer.retries_left = config_.max_retries;
  xfer.confirm = std::move(confirm);

  // Fragmentation: split the user payload at the configured MTU, framing
  // each slice exactly once (the frames are shared by every destination
  // and retry). An empty payload still travels as one (empty) fragment so
  // the receiver has something to acknowledge.
  const std::span<const std::uint8_t> bytes = payload.view();
  const std::size_t mtu =
      config_.mtu == 0 ? std::max<std::size_t>(bytes.size(), 1)
                       : config_.mtu;
  const std::size_t count =
      std::max<std::size_t>((bytes.size() + mtu - 1) / mtu, 1);
  URCGC_ASSERT_MSG(count <= 0xFFFF,
                   "payload needs more than 65535 fragments");
  xfer.frames.reserve(count);
  for (std::size_t index = 0; index < count; ++index) {
    const std::size_t offset = index * mtu;
    const std::size_t len = std::min(mtu, bytes.size() - offset);
    xfer.frames.push_back(frame_fragment(
        xfer_id, static_cast<std::uint16_t>(index),
        static_cast<std::uint16_t>(count), bytes.subspan(offset, len)));
  }
  if (xfer.frames.size() > 1) ++stats_.fragmented_xfers;

  xfers_.emplace(xfer_id, std::move(xfer));
  transmit(xfer_id, /*first=*/true);
  schedule_retry(xfer_id);
}

void TransportEndpoint::transmit(std::uint64_t xfer_id, bool first) {
  auto it = xfers_.find(xfer_id);
  if (it == xfers_.end()) return;
  Xfer& xfer = it->second;
  const auto count = static_cast<std::uint16_t>(xfer.frames.size());
  for (ProcessId dst : xfer.dsts) {
    if (xfer.complete(dst)) continue;  // only chase incomplete receivers
    const auto& acked = xfer.acked[dst];
    for (std::uint16_t index = 0; index < count; ++index) {
      if (acked.contains(index)) continue;  // this fragment got through
      network_.unicast(self_, dst, xfer.frames[index]);
      if (first) {
        ++stats_.data_sent;
      } else {
        ++stats_.retransmissions;
      }
    }
  }
}

void TransportEndpoint::schedule_retry(std::uint64_t xfer_id) {
  // The retry timer belongs to this endpoint's process: on the threaded
  // backend it must fire on our own thread, alongside incoming datagrams.
  network_.runtime().post(self_, config_.retry_interval, [this, xfer_id] {
    auto it = xfers_.find(xfer_id);
    if (it == xfers_.end()) return;
    Xfer& xfer = it->second;
    if (xfer.complete_count() >= xfer.h || xfer.retries_left == 0) {
      finish(xfer_id);
      return;
    }
    --xfer.retries_left;
    transmit(xfer_id, /*first=*/false);
    schedule_retry(xfer_id);
  });
}

void TransportEndpoint::finish(std::uint64_t xfer_id) {
  auto it = xfers_.find(xfer_id);
  if (it == xfers_.end()) return;
  Xfer& xfer = it->second;
  ++stats_.confirms_delivered;
  const int acks = xfer.complete_count();
  if (acks < xfer.h) ++stats_.confirms_short;
  if (xfer.confirm) xfer.confirm(acks);
  xfers_.erase(it);
}

void TransportEndpoint::on_packet(const Packet& packet) {
  // Malformed datagrams are dropped and counted, never acted upon: the
  // subnet is unreliable, so a truncated or garbage packet must look
  // exactly like a lost one.
  const auto reject = [this] { ++stats_.decode_rejected; };
  wire::Reader r(packet.payload.view());
  auto type = r.u8();
  if (!type) return reject();

  if (type.value() == kData) {
    auto xfer_id = r.u64();
    if (!xfer_id) return reject();
    auto index = r.u16();
    auto count = r.u16();
    if (!index || !count || count.value() == 0 ||
        index.value() >= count.value()) {
      return reject();
    }
    auto fragment = r.bytes_view();
    if (!fragment || !r.finish()) return reject();

    // Always (re-)acknowledge the fragment: the sender may have missed a
    // previous ack.
    wire::Writer ack(11);
    ack.u8(kAck);
    ack.u64(xfer_id.value());
    ack.u16(index.value());
    network_.unicast(self_, packet.src, std::move(ack).take());
    ++stats_.acks_sent;

    auto& reassembly = reassembly_[{packet.src, xfer_id.value()}];
    if (reassembly.delivered) return;
    // Fragment-count mismatch across packets of one transfer: hostile or
    // corrupted framing — reject rather than resize mid-reassembly.
    if (!reassembly.fragments.empty() &&
        reassembly.fragments.size() != count.value()) {
      return reject();
    }
    if (count.value() == 1) {
      // A single-fragment transfer: the upcall's frame is this packet's
      // slice of the shared datagram, not a copy.
      reassembly.received = 1;
      reassembly.delivered = true;
      if (upcall_) {
        upcall_(packet.src, wire::FrameRef(packet.payload, fragment.value()));
      }
      return;
    }
    if (reassembly.fragments.empty()) {
      reassembly.fragments.resize(count.value());
    }
    auto& slot = reassembly.fragments[index.value()];
    if (slot.has_value()) return;  // duplicate fragment
    slot.emplace(fragment.value().begin(), fragment.value().end());
    ++reassembly.received;

    if (reassembly.received == reassembly.fragments.size()) {
      std::vector<std::uint8_t> payload;
      for (const auto& piece : reassembly.fragments) {
        payload.insert(payload.end(), piece->begin(), piece->end());
      }
      reassembly.delivered = true;
      // Free the buffers but keep the tombstone for dedup.
      reassembly.fragments.clear();
      reassembly.fragments.shrink_to_fit();
      ++stats_.reassemblies;
      // The reassembled transfer becomes a buffer of its own, so the
      // receiver can keep slices of it.
      const wire::SharedBuffer frame =
          wire::SharedBuffer::take(std::move(payload));
      if (upcall_) upcall_(packet.src, wire::FrameRef(frame));
    }
    return;
  }

  if (type.value() == kAck) {
    auto xfer_id = r.u64();
    if (!xfer_id) return reject();
    auto index = r.u16();
    if (!index || !r.finish()) return reject();
    auto it = xfers_.find(xfer_id.value());
    if (it == xfers_.end()) return;  // late ack after confirm: well-formed
    it->second.acked[packet.src].insert(index.value());
    return;
  }
  reject();  // unknown type
}

}  // namespace urcgc::net
