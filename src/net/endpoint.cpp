#include "net/endpoint.hpp"

namespace urcgc::net {

DatagramEndpoint::DatagramEndpoint(Network& network, ProcessId self)
    : network_(network), self_(self) {
  network_.attach(self_, [this](const Packet& packet) {
    if (upcall_) upcall_(packet.src, wire::FrameRef(packet.payload));
  });
}

void DatagramEndpoint::send(ProcessId dst, wire::SharedBuffer payload) {
  network_.unicast(self_, dst, std::move(payload));
}

void DatagramEndpoint::broadcast(wire::SharedBuffer payload) {
  network_.broadcast(self_, payload);
}

}  // namespace urcgc::net
