#pragma once
// Application message: the unit the urcgc service atomically delivers and
// causally orders. Besides the content it carries its mid and the list of
// mids it causally depends on (paper Section 3).
//
// A received message does not copy out of its datagram: the payload is a
// wire::Slice of the frame (which it pins until the message is purged from
// the history) and the dependency list is held inline.

#include <cstdint>
#include <span>
#include <vector>

#include "causal/dep_list.hpp"
#include "common/types.hpp"
#include "wire/buffer.hpp"
#include "wire/slice.hpp"

namespace urcgc::core {

struct AppMessage {
  Mid mid;
  causal::DepList deps;
  Tick generated_at = 0;
  wire::Slice payload;

  friend bool operator==(const AppMessage&, const AppMessage&) = default;
};

void encode(wire::Writer& w, const AppMessage& msg);
/// encode() with `payload` written in place of msg.payload.
void encode(wire::Writer& w, const AppMessage& msg,
            std::span<const std::uint8_t> payload);
/// Exact bytes encode() writes for `msg` with a payload of
/// `payload_size` bytes.
[[nodiscard]] inline std::size_t encoded_size(const AppMessage& msg,
                                              std::size_t payload_size) {
  // mid, dep count + deps, generated_at, payload length + payload
  return 12 + (4 + 12 * msg.deps.size()) + 8 + (4 + payload_size);
}
[[nodiscard]] inline std::size_t encoded_size(const AppMessage& msg) {
  return encoded_size(msg, msg.payload.size());
}

/// Decodes one message from `r`, whose input lies inside `frame`: the
/// payload becomes a slice of `frame`, the deps stay inline up to
/// DepList's capacity. Nothing is copied.
[[nodiscard]] Result<AppMessage, wire::DecodeError> decode_app_message(
    wire::Reader& r, const wire::SharedBuffer& frame);

}  // namespace urcgc::core
