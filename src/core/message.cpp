#include "core/message.hpp"

#include "wire/codec.hpp"

namespace urcgc::core {

void encode(wire::Writer& w, const AppMessage& msg) {
  encode(w, msg, msg.payload.view());
}

void encode(wire::Writer& w, const AppMessage& msg,
            std::span<const std::uint8_t> payload) {
  wire::put_mid(w, msg.mid);
  wire::put_mids(w, msg.deps);
  w.i64(msg.generated_at);
  w.bytes(payload);
}

Result<AppMessage, wire::DecodeError> decode_app_message(
    wire::Reader& r, const wire::SharedBuffer& frame) {
  AppMessage msg;
  auto mid = wire::get_mid(r);
  if (!mid) return Unexpected(mid.error());
  msg.mid = mid.value();
  if (auto st = wire::read_mids(r, msg.deps); !st) {
    return Unexpected(st.error());
  }
  auto at = r.i64();
  if (!at) return Unexpected(at.error());
  msg.generated_at = at.value();
  auto payload = r.bytes_view();
  if (!payload) return Unexpected(payload.error());
  msg.payload = wire::Slice(frame, payload.value());
  return msg;
}

}  // namespace urcgc::core
