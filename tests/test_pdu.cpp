#include <gtest/gtest.h>

#include <variant>

#include "core/pdu.hpp"

namespace urcgc::core {
namespace {

Decision sample_decision(int n) {
  Decision d = Decision::initial(n);
  d.decided_at = 17;
  d.coordinator = 2;
  d.full_group = true;
  for (int j = 0; j < n; ++j) {
    d.clean_upto[j] = j;
    d.stable_acc[j] = j + 1;
    d.heard[j] = (j % 2 == 0);
    d.max_processed[j] = 10 + j;
    d.most_updated[j] = (j + 1) % n;
    d.min_waiting[j] = (j == 0) ? kNoSeq : 3 * j;
    d.attempts[j] = static_cast<std::uint8_t>(j);
    d.alive[j] = (j != 1);
  }
  return d;
}

TEST(DecisionStruct, InitialState) {
  Decision d = Decision::initial(4);
  EXPECT_EQ(d.decided_at, -1);
  EXPECT_EQ(d.n(), 4);
  EXPECT_EQ(d.alive_count(), 4);
  EXPECT_FALSE(d.full_group);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(d.clean_upto[j], kNoSeq);
    EXPECT_EQ(d.most_updated[j], kNoProcess);
    EXPECT_EQ(d.attempts[j], 0);
    EXPECT_TRUE(d.alive[j]);
  }
}

TEST(DecisionStruct, AliveCount) {
  Decision d = Decision::initial(5);
  d.alive[1] = false;
  d.alive[4] = false;
  EXPECT_EQ(d.alive_count(), 3);
}

TEST(PduRoundTrip, AppMessage) {
  AppMessage msg;
  msg.mid = {3, 42};
  msg.deps = {{3, 41}, {0, 7}};
  msg.generated_at = 12345;
  msg.payload = {9, 8, 7};

  auto pdu = decode_pdu(encode_pdu(msg));
  ASSERT_TRUE(pdu.has_value());
  const auto* decoded = std::get_if<AppMessage>(&pdu.value());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, msg);
}

TEST(PduRoundTrip, AppMessageEmptyDepsAndPayload) {
  AppMessage msg;
  msg.mid = {0, 1};
  auto pdu = decode_pdu(encode_pdu(msg));
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(std::get<AppMessage>(pdu.value()), msg);
}

TEST(PduRoundTrip, Decision) {
  Decision d = sample_decision(7);
  auto pdu = decode_pdu(encode_pdu(d));
  ASSERT_TRUE(pdu.has_value());
  const auto* decoded = std::get_if<Decision>(&pdu.value());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, d);
}

TEST(PduRoundTrip, Request) {
  Request rq;
  rq.subrun = 9;
  rq.from = 4;
  rq.last_processed = {1, 2, 3, 4, 5};
  rq.oldest_waiting = {kNoSeq, 7, kNoSeq, 2, kNoSeq};
  rq.prev_decision = sample_decision(5);

  auto pdu = decode_pdu(encode_pdu(rq));
  ASSERT_TRUE(pdu.has_value());
  const auto* decoded = std::get_if<Request>(&pdu.value());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, rq);
}

TEST(PduRoundTrip, RecoverRq) {
  RecoverRq rq{2, 5, 10, 20};
  auto pdu = decode_pdu(encode_pdu(rq));
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(std::get<RecoverRq>(pdu.value()), rq);
}

TEST(PduRoundTrip, RecoverRsp) {
  RecoverRsp rsp;
  rsp.from = 1;
  rsp.origin = 3;
  AppMessage m1;
  m1.mid = {3, 1};
  m1.payload = {1};
  AppMessage m2;
  m2.mid = {3, 2};
  m2.deps = {{3, 1}};
  m2.payload = {2, 2};
  rsp.messages = {m1, m2};

  auto pdu = decode_pdu(encode_pdu(rsp));
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(std::get<RecoverRsp>(pdu.value()), rsp);
}

TEST(PduRoundTrip, RecoverRspEmpty) {
  RecoverRsp rsp;
  rsp.from = 0;
  rsp.origin = 1;
  auto pdu = decode_pdu(encode_pdu(rsp));
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(std::get<RecoverRsp>(pdu.value()), rsp);
}

TEST(PduDecode, UnknownTypeRejected) {
  const std::uint8_t raw[] = {0x7F, 0, 0};
  EXPECT_FALSE(decode_pdu(raw).has_value());
}

TEST(PduDecode, EmptyBufferRejected) {
  EXPECT_FALSE(decode_pdu({}).has_value());
}

TEST(PduDecode, TruncatedDecisionRejected) {
  auto bytes = encode_pdu(sample_decision(5));
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, std::size_t{10},
                          bytes.size() - 1}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(decode_pdu(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(PduDecode, TrailingGarbageRejected) {
  AppMessage msg;
  msg.mid = {0, 1};
  auto bytes = encode_pdu(msg);
  bytes.push_back(0xAA);
  EXPECT_FALSE(decode_pdu(bytes).has_value());
}

TEST(PduDecode, MismatchedDecisionVectorsRejected) {
  // Hand-craft a decision whose alive vector is shorter than the others by
  // constructing one with n=4 vectors and a 3-entry alive bitmap.
  Decision d = sample_decision(4);
  d.alive.pop_back();
  auto bytes = encode_pdu(d);
  EXPECT_FALSE(decode_pdu(bytes).has_value());
}

TEST(PduSize, DecisionFitsIpDatagramAt15) {
  // The paper's point: an urcgc control message for n=15 fits in one
  // 576-byte minimum IP datagram.
  const auto bytes = encode_pdu(Decision::initial(15));
  EXPECT_LE(bytes.size(), 576u);
}

TEST(PduSize, DecisionFitsEthernetAt40) {
  const auto bytes = encode_pdu(Decision::initial(40));
  EXPECT_LE(bytes.size(), 1500u);
}

TEST(PduSize, DecisionGrowsLinearlyInN) {
  const auto s10 = encode_pdu(Decision::initial(10)).size();
  const auto s20 = encode_pdu(Decision::initial(20)).size();
  const auto s40 = encode_pdu(Decision::initial(40)).size();
  // Roughly affine: doubling n roughly doubles the size.
  EXPECT_NEAR(static_cast<double>(s20) / s10, 2.0, 0.3);
  EXPECT_NEAR(static_cast<double>(s40) / s20, 2.0, 0.3);
}

TEST(PduSize, FullFrameSizeIsExact) {
  // Full control frames reserve full_frame_size() up front; a formula
  // that drifts from the encoders would silently regrow the buffer.
  for (const int n : {1, 10, 100, 1000}) {
    for (const int boundaries : {0, 3}) {
      Decision d = sample_decision(n);
      for (int b = 0; b < boundaries; ++b) {
        d.boundaries.push_back({10 + b, std::vector<Seq>(n, b)});
      }
      EXPECT_EQ(full_frame_size(d), encode_pdu(d).size())
          << "n=" << n << " boundaries=" << boundaries;

      Request rq;
      rq.subrun = 18;
      rq.from = 0;
      rq.last_processed.assign(n, 4);
      rq.oldest_waiting.assign(n, kNoSeq);
      rq.prev_decision = d;
      EXPECT_EQ(full_frame_size(rq), encode_pdu(rq).size())
          << "n=" << n << " boundaries=" << boundaries;
    }
  }
}

}  // namespace
}  // namespace urcgc::core
