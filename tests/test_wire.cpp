#include <gtest/gtest.h>

#include <vector>

#include "alloc_guard.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace urcgc::wire {
namespace {

using testsupport::AllocationCapGuard;

TEST(WireWriter, PrimitivesAreBigEndian) {
  Writer w;
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 6u);
  EXPECT_EQ(bytes[0], 0x12);
  EXPECT_EQ(bytes[1], 0x34);
  EXPECT_EQ(bytes[2], 0xDE);
  EXPECT_EQ(bytes[3], 0xAD);
  EXPECT_EQ(bytes[4], 0xBE);
  EXPECT_EQ(bytes[5], 0xEF);
}

TEST(WireRoundTrip, AllPrimitives) {
  Writer w;
  w.u8(0xAB);
  w.u16(65535);
  w.u32(4000000000u);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-12345);
  w.i64(-9000000000LL);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  const auto bytes = std::move(w).take();

  Reader r(bytes);
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 65535);
  EXPECT_EQ(r.u32().value(), 4000000000u);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32().value(), -12345);
  EXPECT_EQ(r.i64().value(), -9000000000LL);
  EXPECT_TRUE(r.boolean().value());
  EXPECT_FALSE(r.boolean().value());
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_TRUE(r.finish().ok());
}

TEST(WireReader, TruncatedFails) {
  Writer w;
  w.u32(42);
  auto bytes = std::move(w).take();
  bytes.pop_back();
  Reader r(bytes);
  auto result = r.u32();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), DecodeError::kTruncated);
}

TEST(WireReader, EmptyBufferFailsEverything) {
  Reader r(std::span<const std::uint8_t>{});
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.bytes().has_value());
}

TEST(WireReader, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  ASSERT_TRUE(r.u8().has_value());
  auto fin = r.finish();
  ASSERT_FALSE(fin.ok());
  EXPECT_EQ(fin.error(), DecodeError::kTrailingBytes);
}

TEST(WireReader, BooleanRejectsNonBinary) {
  const std::uint8_t raw[] = {7};
  Reader r(raw);
  auto b = r.boolean();
  ASSERT_FALSE(b.has_value());
  EXPECT_EQ(b.error(), DecodeError::kBadValue);
}

TEST(WireReader, BytesRoundTrip) {
  std::vector<std::uint8_t> payload{1, 2, 3, 250, 255};
  Writer w;
  w.bytes(payload);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_EQ(r.bytes().value(), payload);
  EXPECT_TRUE(r.finish().ok());
}

TEST(WireReader, HostileLengthPrefixRejected) {
  // A length prefix far beyond the buffer must fail without allocating.
  Writer w;
  w.u32(0xFFFFFFFF);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  auto result = r.bytes();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), DecodeError::kTruncated);
}

TEST(WireReader, EmptyStringAndBytes) {
  Writer w;
  w.str("");
  w.bytes({});
  auto raw = std::move(w).take();
  Reader r(raw);
  EXPECT_EQ(r.str().value(), "");
  EXPECT_TRUE(r.bytes().value().empty());
  EXPECT_TRUE(r.finish().ok());
}

TEST(WireCodec, MidRoundTrip) {
  Writer w;
  put_mid(w, Mid{3, 77});
  put_mid(w, Mid{});  // invalid sentinel must survive too
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_EQ(get_mid(r).value(), (Mid{3, 77}));
  EXPECT_EQ(get_mid(r).value(), Mid{});
  EXPECT_TRUE(r.finish().ok());
}

TEST(WireCodec, MidListRoundTrip) {
  std::vector<Mid> mids{{0, 1}, {1, 5}, {9, 123456789}};
  Writer w;
  put_mids(w, mids);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_EQ(get_mids(r).value(), mids);
}

TEST(WireCodec, EmptyMidList) {
  Writer w;
  put_mids(w, {});
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_TRUE(get_mids(r).value().empty());
  EXPECT_TRUE(r.finish().ok());
}

TEST(WireCodec, MidListHostileCountRejected) {
  Writer w;
  w.u32(1000000);  // claims a million mids in a 4-byte buffer
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_FALSE(get_mids(r).has_value());
}

TEST(WireCodec, SeqVectorRoundTrip) {
  std::vector<Seq> seqs{0, 1, -1, 1LL << 40};
  Writer w;
  put_seqs(w, seqs);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_EQ(get_seqs(r).value(), seqs);
}

TEST(WireCodec, U8VectorRoundTrip) {
  std::vector<std::uint8_t> values{0, 255, 3, 7};
  Writer w;
  put_u8s(w, values);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_EQ(get_u8s(r).value(), values);
}

TEST(WireCodec, BoolVectorBitPacked) {
  std::vector<bool> values{true, false, true, true, false, false, true,
                           false, true};  // 9 bits -> 2 bytes
  Writer w;
  put_bools(w, values);
  auto bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), 4u + 2u);  // length prefix + 2 packed bytes
  Reader r(bytes);
  EXPECT_EQ(get_bools(r).value(), values);
}

TEST(WireCodec, BoolVectorSizes) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 40u, 64u}) {
    std::vector<bool> values(len);
    for (std::size_t i = 0; i < len; ++i) values[i] = (i % 3 == 0);
    Writer w;
    put_bools(w, values);
    auto bytes = std::move(w).take();
    Reader r(bytes);
    EXPECT_EQ(get_bools(r).value(), values) << "len=" << len;
  }
}

TEST(WireCodec, BoolVectorHostileCountRejected) {
  Writer w;
  w.u32(1u << 30);
  auto bytes = std::move(w).take();
  Reader r(bytes);
  EXPECT_FALSE(get_bools(r).has_value());
}

TEST(WireCodec, BoolVectorOverflowCountRejectedWithoutAllocating) {
  // Counts in [2^32-7, 2^32-1] make (count + 7) wrap to < 8 in 32-bit
  // arithmetic, so the byte estimate rounds to zero, the truncation guard
  // passes, and reserve(count) grabs ~512 MB — the overflow this test
  // pins down. The cap below fails the test via bad_alloc if the decoder
  // ever allocates on this path again.
  for (const std::uint32_t count :
       {0xFFFFFFF9u /* 2^32-7: first wrapping value */, 0xFFFFFFFCu,
        0xFFFFFFFFu /* 2^32-1 */}) {
    Writer w;
    w.u32(count);
    w.u8(0xAB);  // non-empty remainder, so only the guard can reject
    auto bytes = std::move(w).take();
    Reader r(bytes);
    AllocationCapGuard guard(1u << 20);
    auto result = get_bools(r);
    ASSERT_FALSE(result.has_value()) << "count=" << count;
    EXPECT_EQ(result.error(), DecodeError::kTruncated);
  }
}

TEST(WireCodec, MaxCountsRejectedWithoutAllocatingAcrossDecoders) {
  // Audit companion for every counted decoder: the widest possible count
  // against a tiny buffer must bounce off the pre-check before any
  // allocation. get_mids/get_seqs/get_seqs32 multiply by a 64-bit element
  // size and get_u8s compares directly, so none of them can wrap — this
  // keeps it that way.
  Writer w;
  w.u32(0xFFFFFFFFu);
  w.u8(0x01);
  const auto bytes = std::move(w).take();

  AllocationCapGuard guard(1u << 20);
  {
    Reader r(bytes);
    auto result = get_mids(r);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error(), DecodeError::kTruncated);
  }
  {
    Reader r(bytes);
    auto result = get_seqs(r);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error(), DecodeError::kTruncated);
  }
  {
    Reader r(bytes);
    auto result = get_seqs32(r);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error(), DecodeError::kTruncated);
  }
  {
    Reader r(bytes);
    auto result = get_u8s(r);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error(), DecodeError::kTruncated);
  }
}

TEST(MidHash, DistinctMidsDistinctHashes) {
  std::hash<Mid> h;
  EXPECT_NE(h(Mid{0, 1}), h(Mid{1, 0}));
  EXPECT_NE(h(Mid{2, 3}), h(Mid{3, 2}));
  EXPECT_EQ(h(Mid{5, 9}), h(Mid{5, 9}));
}

TEST(MidOrdering, LexicographicByOriginThenSeq) {
  EXPECT_LT((Mid{0, 99}), (Mid{1, 1}));
  EXPECT_LT((Mid{1, 1}), (Mid{1, 2}));
  EXPECT_TRUE((Mid{2, 2}) == (Mid{2, 2}));
}

TEST(MidValidity, Sentinels) {
  EXPECT_FALSE(Mid{}.valid());
  EXPECT_FALSE((Mid{0, kNoSeq}).valid());
  EXPECT_FALSE((Mid{kNoProcess, 1}).valid());
  EXPECT_TRUE((Mid{0, 1}).valid());
}

}  // namespace
}  // namespace urcgc::wire
