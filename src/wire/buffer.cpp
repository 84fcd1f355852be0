#include "wire/buffer.hpp"

#include <cstring>

namespace urcgc::wire {

void Writer::bytes(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  if (!data.empty()) std::memcpy(grow(data.size()), data.data(), data.size());
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
}

std::string_view to_string(DecodeError err) {
  switch (err) {
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kTrailingBytes: return "trailing bytes";
    case DecodeError::kBadValue: return "bad value";
  }
  return "?";
}

bool Reader::take(std::size_t n, std::span<const std::uint8_t>& out) {
  if (data_.size() - pos_ < n) return false;
  out = data_.subspan(pos_, n);
  pos_ += n;
  return true;
}

Result<bool, DecodeError> Reader::boolean() {
  auto v = u8();
  if (!v) return Unexpected(v.error());
  if (v.value() > 1) return Unexpected(DecodeError::kBadValue);
  return v.value() == 1;
}

Result<std::vector<std::uint8_t>, DecodeError> Reader::bytes() {
  auto s = bytes_view();
  if (!s) return Unexpected(s.error());
  return std::vector<std::uint8_t>(s.value().begin(), s.value().end());
}

Result<std::span<const std::uint8_t>, DecodeError> Reader::bytes_view() {
  auto len = u32();
  if (!len) return Unexpected(len.error());
  std::span<const std::uint8_t> s;
  if (!take(len.value(), s)) return Unexpected(DecodeError::kTruncated);
  return s;
}

Result<std::string, DecodeError> Reader::str() {
  auto len = u32();
  if (!len) return Unexpected(len.error());
  std::span<const std::uint8_t> s;
  if (!take(len.value(), s)) return Unexpected(DecodeError::kTruncated);
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

Status<DecodeError> Reader::finish() const {
  if (pos_ != data_.size()) return Unexpected(DecodeError::kTrailingBytes);
  return {};
}

}  // namespace urcgc::wire
