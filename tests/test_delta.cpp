// Delta-encoded control plane (src/core/delta.*, src/wire/sparse.hpp):
// sparse-codec exactness and hostile-input behavior at the wire boundary,
// anchor digests and the DecisionCache, delta/full frame dispatch with its
// fallback triggers, and the cross-encoding equivalence suite — same
// seeds, full vs delta, decision-for-decision identical reports on the
// deterministic sim (the property DESIGN.md "Control-plane encoding"
// promises), with the threaded backend and the sustained-omission storm
// checked at the clause level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "alloc_guard.hpp"
#include "check/case.hpp"
#include "check/explorer.hpp"
#include "common/rng.hpp"
#include "core/delta.hpp"
#include "core/mt_entity.hpp"
#include "core/pdu.hpp"
#include "core/process.hpp"
#include "harness/experiment.hpp"
#include "net/endpoint.hpp"
#include "obs/registry.hpp"
#include "sim/simulation.hpp"
#include "stats/metrics.hpp"
#include "wire/sparse.hpp"

namespace urcgc::core {
namespace {

Decision sample_decision(int n, SubrunId decided_at) {
  Decision d = Decision::initial(n);
  d.decided_at = decided_at;
  d.coordinator = static_cast<ProcessId>(decided_at % n);
  for (int j = 0; j < n; ++j) {
    d.clean_upto[j] = j;
    d.stable_acc[j] = j + 1;
    d.heard[j] = (j % 2 == 0);
    d.max_processed[j] = 10 + j;
    d.most_updated[j] = (j + 1) % n;
    d.min_waiting[j] = (j == 0) ? kNoSeq : 3 * j;
    d.attempts[j] = static_cast<std::uint8_t>(j % 5);
    d.alive[j] = true;
  }
  return d;
}

/// A successor decision one subrun later with a handful of moved entries —
/// the steady-state shape a delta frame compresses.
Decision evolve(const Decision& anchor) {
  Decision d = anchor;
  d.decided_at = anchor.decided_at + 1;
  d.coordinator = (anchor.coordinator + 1) % anchor.n();
  d.clean_upto[0] += 2;
  d.max_processed[1] += 1;
  d.heard[2] = !d.heard[2];
  d.most_updated[0] = kNoProcess;
  d.attempts[3] = static_cast<std::uint8_t>(d.attempts[3] + 1);
  return d;
}

Config delta_config(int n = 6) {
  Config config;
  config.n = n;
  config.control_encoding = ControlEncoding::kDelta;
  return config;
}

// ---- sparse codec ----

TEST(SparseCodec, SeqOverridesRoundTrip) {
  const std::vector<Seq> base{1, 2, 3, 4, 5};
  std::vector<Seq> v = base;
  v[1] = 20;
  v[4] = kNoSeq;
  wire::Writer w;
  wire::put_sparse_seqs(w, v, base);
  wire::Reader r(w.view());
  std::vector<Seq> decoded = base;
  ASSERT_TRUE(wire::patch_sparse_seqs(r, decoded).ok());
  EXPECT_EQ(decoded, v);
  EXPECT_TRUE(r.finish().ok());
}

TEST(SparseCodec, IdenticalVectorsCostTwoBytes) {
  const std::vector<Seq> base{7, 8, 9};
  wire::Writer w;
  wire::put_sparse_seqs(w, base, base);
  EXPECT_EQ(w.size(), 2u);  // just the zero count
}

TEST(SparseCodec, FlipsAndU8sAndPidsRoundTrip) {
  const std::vector<bool> bbase{true, false, true, false};
  std::vector<bool> b = bbase;
  b[0] = false;
  b[3] = true;
  const std::vector<std::uint8_t> ubase{0, 1, 2, 3};
  std::vector<std::uint8_t> u = ubase;
  u[2] = 250;
  const std::vector<ProcessId> pbase{0, 1, 2, 3};
  std::vector<ProcessId> p = pbase;
  p[1] = kNoProcess;

  wire::Writer w;
  wire::put_sparse_flips(w, b, bbase);
  wire::put_sparse_u8s(w, u, ubase);
  wire::put_sparse_pids(w, p, pbase);
  wire::Reader r(w.view());
  std::vector<bool> db = bbase;
  std::vector<std::uint8_t> du = ubase;
  std::vector<ProcessId> dp = pbase;
  ASSERT_TRUE(wire::patch_sparse_flips(r, db).ok());
  ASSERT_TRUE(wire::patch_sparse_u8s(r, du).ok());
  ASSERT_TRUE(wire::patch_sparse_pids(r, dp).ok());
  EXPECT_EQ(db, b);
  EXPECT_EQ(du, u);
  EXPECT_EQ(dp, p);
  EXPECT_TRUE(r.finish().ok());
}

TEST(SparseCodec, DisorderedIndicesRejected) {
  // Canonical form requires strictly increasing indices: (3, 1) is both
  // out of order and, as (1, 1), a duplicate — kBadValue either way.
  for (const std::uint16_t second : {std::uint16_t{1}, std::uint16_t{3}}) {
    wire::Writer w;
    w.u16(2);
    w.u16(3);
    w.u32(9);
    w.u16(second);
    w.u32(9);
    wire::Reader r(w.view());
    std::vector<Seq> decoded(5, kNoSeq);
    const auto st = wire::patch_sparse_seqs(r, decoded);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), wire::DecodeError::kBadValue);
  }
}

TEST(SparseCodec, OutOfRangeIndexRejected) {
  wire::Writer w;
  w.u16(1);
  w.u16(5);  // base has 5 entries: valid indices are 0..4
  w.u32(1);
  wire::Reader r(w.view());
  std::vector<Seq> decoded(5, kNoSeq);
  const auto st = wire::patch_sparse_seqs(r, decoded);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), wire::DecodeError::kBadValue);
}

TEST(SparseCodec, HostileCountRejectedBeforeAllocating) {
  // A count field claiming 65535 entries against a 4-byte tail must fail
  // the pre-allocation length check, not attempt to read 65535 entries.
  wire::Writer w;
  w.u16(0xFFFF);
  w.u32(0);
  wire::Reader r(w.view());
  std::vector<Seq> decoded(5, kNoSeq);
  const auto st = wire::patch_sparse_seqs(r, decoded);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error(), wire::DecodeError::kTruncated);
}

TEST(SparseCodec, RandomBytesNeverCrash) {
  const std::vector<Seq> base(8, kNoSeq);
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(rng.uniform(24));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
    wire::Reader r(bytes);
    std::vector<Seq> decoded = base;
    (void)wire::patch_sparse_seqs(r, decoded);
    EXPECT_EQ(decoded.size(), base.size());
  }
}

// ---- digests and the anchor cache ----

TEST(DecisionDigest, DeterministicAndContentSensitive) {
  const Decision a = sample_decision(6, 17);
  EXPECT_EQ(decision_digest(a), decision_digest(a));

  // Same decided_at, different content — the partitioned-coordinator twin
  // case the (decided_at, digest) key exists to distinguish.
  Decision twin = a;
  twin.clean_upto[2] += 1;
  EXPECT_NE(decision_digest(a), decision_digest(twin));
}

TEST(DecisionDigest, GoldenValues) {
  // The digest names anchors on the wire, so its value is part of the
  // protocol: these literals were taken from the Writer-based digest the
  // streamed one replaced.
  EXPECT_EQ(decision_digest(sample_decision(6, 17)), 0x875F16E1585B397EULL);

  Decision b = sample_decision(5, 20);
  b.full_group = true;
  b.alive[3] = false;
  b.most_updated[2] = kNoProcess;
  b.stability_epoch = 3;
  b.boundaries.push_back({12, std::vector<Seq>(5, 4)});
  b.boundaries.push_back({19, {1, 2, 3, 4, 5}});
  EXPECT_EQ(decision_digest(b), 0xC02B2C2AF634CA07ULL);
}

TEST(DecisionDigest, EqualsBytewiseFnvOfTheCanonicalBody) {
  // The sink folds runs of leading zero bytes into one multiply; the hash
  // must stay FNV-1a over exactly the bytes encode_decision_body writes,
  // whatever the magnitudes (zero, one and two significant bytes, full
  // width, negative sentinels).
  Rng rng(3);
  const auto draw = [&rng]() -> std::int64_t {
    switch (rng.uniform(5)) {
      case 0: return 0;
      case 1: return static_cast<std::int64_t>(rng.uniform(0x100));
      case 2: return static_cast<std::int64_t>(rng.uniform(0x10000));
      case 3: return static_cast<std::int64_t>(rng.uniform(1ULL << 40));
      default: return -1 - static_cast<std::int64_t>(rng.uniform(1000));
    }
  };
  for (int round = 0; round < 300; ++round) {
    const int n = 1 + static_cast<int>(rng.uniform(40));
    Decision d = Decision::initial(n);
    d.decided_at = draw();
    d.coordinator = static_cast<ProcessId>(draw());
    d.full_group = rng.uniform(2) == 0;
    for (int j = 0; j < n; ++j) {
      d.clean_upto[j] = draw();
      d.stable_acc[j] = draw();
      d.heard[j] = rng.uniform(2) == 0;
      d.max_processed[j] = draw();
      d.most_updated[j] =
          rng.uniform(4) == 0 ? kNoProcess
                              : static_cast<ProcessId>(rng.uniform(0x10000));
      d.min_waiting[j] = draw();
      d.attempts[j] = static_cast<std::uint8_t>(rng.uniform(3) == 0
                                                    ? rng.uniform(256)
                                                    : 0);
      d.alive[j] = rng.uniform(5) != 0;
    }
    d.stability_epoch = draw();
    for (std::uint64_t b = rng.uniform(3); b > 0; --b) {
      StabilityBoundary boundary{draw(), std::vector<Seq>(n)};
      for (Seq& seq : boundary.clean_upto) seq = draw();
      d.boundaries.push_back(std::move(boundary));
    }
    wire::Writer w;
    encode_decision_body(w, d);
    std::uint64_t bytewise = 14695981039346656037ULL;
    for (const std::uint8_t byte : w.view()) {
      bytewise = (bytewise ^ byte) * 1099511628211ULL;
    }
    ASSERT_EQ(decision_digest(d), bytewise) << "round " << round;
  }
}

TEST(DecisionCache, InsertFindDedupeEvict) {
  DecisionCache cache(3);
  EXPECT_EQ(cache.find(0, 0), nullptr);

  const Decision a = sample_decision(4, 10);
  cache.insert(a);
  cache.insert(a);  // dedupe: second insert is a no-op
  EXPECT_EQ(cache.size(), 1u);
  const Decision* hit = cache.find(a.decided_at, decision_digest(a));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, a);

  // The initial decision is never a usable anchor and is never cached.
  cache.insert(Decision::initial(4));
  EXPECT_EQ(cache.size(), 1u);

  for (SubrunId s = 11; s <= 13; ++s) cache.insert(sample_decision(4, s));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.find(a.decided_at, decision_digest(a)), nullptr)
      << "oldest entry must be evicted FIFO";
  EXPECT_NE(cache.find(13, decision_digest(sample_decision(4, 13))), nullptr);
}

TEST(DecisionCache, StoresTheDigestAtInsert) {
  DecisionCache cache(4);
  const Decision a = sample_decision(6, 17);
  cache.insert(a);
  EXPECT_EQ(cache.digest_of(a), decision_digest(a));
  EXPECT_NE(cache.find(a.decided_at, decision_digest(a)), nullptr);
  // An uncached decision's digest is computed on demand.
  const Decision b = evolve(a);
  EXPECT_EQ(cache.digest_of(b), decision_digest(b));
}

TEST(DecisionCache, EqualReinsertAllocatesNothing) {
  DecisionCache cache(4);
  const Decision a = sample_decision(6, 17);
  cache.insert(a);
  const Decision copy = a;
  {
    testsupport::AllocationCapGuard guard(0);
    const std::uint64_t before = testsupport::thread_allocations();
    cache.insert(copy);
    EXPECT_EQ(testsupport::thread_allocations(), before);
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionCache, SameSubrunTwinGetsItsOwnEntry) {
  // Partitioned coordinators can decide the same subrun differently: the
  // dedupe compares whole bodies, never decided_at alone.
  DecisionCache cache(4);
  const Decision a = sample_decision(6, 17);
  Decision twin = a;
  twin.clean_upto[2] += 1;
  cache.insert(a);
  cache.insert(twin);
  EXPECT_EQ(cache.size(), 2u);
  const Decision* found_a = cache.find(a.decided_at, decision_digest(a));
  const Decision* found_twin =
      cache.find(twin.decided_at, decision_digest(twin));
  ASSERT_NE(found_a, nullptr);
  ASSERT_NE(found_twin, nullptr);
  EXPECT_EQ(*found_a, a);
  EXPECT_EQ(*found_twin, twin);
}

TEST(DecisionCache, RingStopsAllocatingAfterWarmUp) {
  DecisionCache cache(4);
  for (SubrunId s = 10; s < 14; ++s) cache.insert(sample_decision(6, s));
  std::vector<Decision> later;
  for (SubrunId s = 14; s < 22; ++s) later.push_back(sample_decision(6, s));
  {
    testsupport::AllocationCapGuard guard(0);
    const std::uint64_t before = testsupport::thread_allocations();
    for (const Decision& d : later) cache.insert(d);
    EXPECT_EQ(testsupport::thread_allocations(), before);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.find(17, decision_digest(sample_decision(6, 17))), nullptr);
  for (SubrunId s = 18; s < 22; ++s) {
    EXPECT_NE(cache.find(s, decision_digest(sample_decision(6, s))), nullptr)
        << "s=" << s;
  }
}

TEST(DecisionCache, WindowCoversPipelineDepth) {
  Config config;
  EXPECT_EQ(DecisionCache::window_for(config), 8u);  // max(8, 2*1+1)
  config.max_subruns_in_flight = 6;
  EXPECT_EQ(DecisionCache::window_for(config), 13u);  // 2*6+1
  config.delta_cache_window = 4;
  EXPECT_EQ(DecisionCache::window_for(config), 4u);  // explicit knob wins
}

// ---- frame dispatch and reconstruction ----

TEST(DeltaFrames, DecisionRoundTripsThroughAnchor) {
  const Decision anchor = sample_decision(6, 17);
  const Decision d = evolve(anchor);
  const Config config = delta_config();
  ASSERT_TRUE(decision_delta_eligible(d, anchor, config));

  bool was_delta = false;
  const auto frame =
      encode_decision_pdu(d, anchor, config, /*receivers_hold_anchor=*/true,
                          &was_delta);
  EXPECT_TRUE(was_delta);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame[0], static_cast<std::uint8_t>(PduType::kDecisionDelta));
  EXPECT_LT(frame.size(), encode_pdu(d).size());

  DecisionCache cache(8);
  cache.insert(anchor);
  DecodeContext ctx;
  ctx.cache = &cache;
  auto pdu = decode_pdu(frame, &ctx);
  ASSERT_TRUE(pdu.has_value());
  const auto* decoded = std::get_if<Decision>(&pdu.value());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, d);
  // The reconstructed decision must itself become an anchor candidate.
  EXPECT_NE(cache.find(d.decided_at, decision_digest(d)), nullptr);
}

TEST(DeltaFrames, DecisionWithBoundaryAppendRoundTrips) {
  Decision anchor = sample_decision(5, 20);
  anchor.stability_epoch = 3;
  anchor.boundaries.push_back({12, std::vector<Seq>(5, 4)});
  Decision d = evolve(anchor);
  d.stability_epoch = 4;
  d.boundaries.push_back({d.decided_at, std::vector<Seq>(5, 9)});

  const Config config = delta_config(5);
  ASSERT_TRUE(decision_delta_eligible(d, anchor, config));
  const auto frame = encode_decision_pdu(d, anchor, config);

  DecisionCache cache(8);
  cache.insert(anchor);
  DecodeContext ctx;
  ctx.cache = &cache;
  auto pdu = decode_pdu(frame, &ctx);
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(std::get<Decision>(pdu.value()), d);
}

TEST(DeltaFrames, DeltaOnTheOldestRingEntryDecodesLikeAFullFrame) {
  // Wrap the ring, then decode a delta anchored on its oldest entry: the
  // decoded decision's own insert overwrites that very slot, so the
  // decoder must be done reading the anchor before the commit.
  DecisionCache cache(4);
  for (SubrunId s = 10; s < 16; ++s) cache.insert(sample_decision(6, s));
  const Decision oldest = sample_decision(6, 12);
  ASSERT_NE(cache.find(12, decision_digest(oldest)), nullptr);

  const Decision d = evolve(oldest);  // a twin of the cached subrun 13
  bool was_delta = false;
  const auto frame =
      encode_decision_pdu(d, oldest, delta_config(), true, &was_delta, &cache);
  ASSERT_TRUE(was_delta);

  DecodeContext ctx;
  ctx.cache = &cache;
  auto delta = decode_pdu(frame, &ctx);
  ASSERT_TRUE(delta.has_value());
  auto full = decode_pdu(encode_pdu(d));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(std::get<Decision>(delta.value()), std::get<Decision>(full.value()));
  EXPECT_EQ(cache.find(12, decision_digest(oldest)), nullptr);
  EXPECT_NE(cache.find(d.decided_at, decision_digest(d)), nullptr);
}

TEST(DeltaFrames, RequestRoundTripsAgainstItsOwnEmbed) {
  const int n = 6;
  Request rq;
  rq.subrun = 36;
  rq.from = 2;
  rq.prev_decision = sample_decision(n, 35);
  rq.last_processed = rq.prev_decision.max_processed;
  rq.last_processed[3] += 2;  // one locally-ahead entry
  rq.oldest_waiting.assign(n, kNoSeq);
  rq.oldest_waiting[1] = 7;

  const Config config = delta_config();
  ASSERT_TRUE(request_delta_eligible(rq, config));
  bool was_delta = false;
  const auto frame = encode_request_pdu(rq, config, &was_delta);
  EXPECT_TRUE(was_delta);
  EXPECT_EQ(frame[0], static_cast<std::uint8_t>(PduType::kRequestDelta));
  EXPECT_LT(frame.size(), encode_pdu(rq).size() / 4)
      << "the embedded decision must shrink to a 16-byte reference";
  EXPECT_LT(frame.size(), 64u) << "O(changed entries), not O(n)";

  DecisionCache cache(8);
  cache.insert(rq.prev_decision);
  DecodeContext ctx;
  ctx.cache = &cache;
  auto pdu = decode_pdu(frame, &ctx);
  ASSERT_TRUE(pdu.has_value());
  const auto* decoded = std::get_if<Request>(&pdu.value());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, rq);
}

TEST(DeltaFrames, AnchorMissIsSignaledNotConfusedWithGarbage) {
  const Decision anchor = sample_decision(6, 17);
  const Decision d = evolve(anchor);
  const Config config = delta_config();
  const auto frame = encode_decision_pdu(d, anchor, config);

  // Empty cache: wire-valid frame, unknown anchor.
  DecisionCache cache(8);
  DecodeContext ctx;
  ctx.cache = &cache;
  EXPECT_FALSE(decode_pdu(frame, &ctx).has_value());
  EXPECT_TRUE(ctx.anchor_missed);

  // No context at all (a full-mode receiver): still a clean failure.
  EXPECT_FALSE(decode_pdu(frame).has_value());

  // Garbage stays DecodeError without the anchor_missed signal.
  DecodeContext garbage_ctx;
  garbage_ctx.cache = &cache;
  const std::uint8_t garbage[] = {
      static_cast<std::uint8_t>(PduType::kDecisionDelta), 0x01};
  EXPECT_FALSE(decode_pdu(garbage, &garbage_ctx).has_value());
  EXPECT_FALSE(garbage_ctx.anchor_missed);
}

TEST(DeltaFrames, FullModeBytesAreUnchanged) {
  // The tentpole's compatibility contract: full frames are byte-identical
  // to the pre-delta encoders, whichever dispatching entry point built them.
  Config config;
  config.n = 6;
  const Decision anchor = sample_decision(6, 17);
  const Decision d = evolve(anchor);
  bool was_delta = true;
  EXPECT_EQ(encode_decision_pdu(d, anchor, config,
                                /*receivers_hold_anchor=*/true, &was_delta),
            encode_pdu(d));
  EXPECT_FALSE(was_delta);

  Request rq;
  rq.subrun = 36;
  rq.from = 1;
  rq.prev_decision = d;
  rq.last_processed = d.max_processed;
  rq.oldest_waiting.assign(6, kNoSeq);
  was_delta = true;
  EXPECT_EQ(encode_request_pdu(rq, config, &was_delta), encode_pdu(rq));
  EXPECT_FALSE(was_delta);
}

TEST(DeltaFrames, FullSnapshotTriggers) {
  const Config config = delta_config();
  const Decision anchor = sample_decision(6, 17);

  // Unanchorable initial decision.
  EXPECT_FALSE(
      decision_delta_eligible(evolve(anchor), Decision::initial(6), config));

  // Membership change relative to the anchor.
  Decision member_change = evolve(anchor);
  member_change.alive[4] = false;
  EXPECT_FALSE(decision_delta_eligible(member_change, anchor, config));

  // Periodic resync cadence: decided_at % delta_snapshot_every == 0.
  Decision cadence = sample_decision(6, 31);
  Decision on_cadence = evolve(cadence);  // decided_at = 32, 32 % 16 == 0
  EXPECT_FALSE(decision_delta_eligible(on_cadence, cadence, config));

  // Anchor gap beyond the pipeline depth (k = 1 here).
  Decision gapped = evolve(anchor);
  gapped.decided_at = anchor.decided_at + 2;
  EXPECT_FALSE(decision_delta_eligible(gapped, anchor, config));

  // delta_snapshot_every <= 1 disables the delta path outright.
  Config always_full = config;
  always_full.delta_snapshot_every = 1;
  EXPECT_FALSE(decision_delta_eligible(evolve(anchor), anchor, always_full));
}

TEST(DeltaFrames, DecisionFallsBackWhenAReceiverMayLackTheAnchor) {
  // The coordinator's receiver-coverage proof: when any alive member did
  // not demonstrate (via its request embed) that it holds the anchor, the
  // frame must be a full snapshot even though the delta is expressible —
  // a chained delta would stay undecodable for that member until the next
  // cadence point, and the run may quiesce first (the healing-partition
  // divergence the checker caught).
  const Decision anchor = sample_decision(6, 17);
  const Decision d = evolve(anchor);
  const Config config = delta_config();
  ASSERT_TRUE(decision_delta_eligible(d, anchor, config));

  bool was_delta = true;
  const auto frame = encode_decision_pdu(
      d, anchor, config, /*receivers_hold_anchor=*/false, &was_delta);
  EXPECT_FALSE(was_delta);
  EXPECT_EQ(frame[0], static_cast<std::uint8_t>(PduType::kDecision));
  EXPECT_EQ(frame, encode_pdu(d));
}

TEST(DeltaFrames, StaleRequestSenderFallsBackToFull) {
  // A sender whose latest decision lags the current subrun beyond the
  // pipeline depth has missed decisions: its anchor may already be
  // evicted from the coordinator's cache, and the full frame is what
  // shows the coordinator the stale embed (prompting a snapshot back).
  const int n = 6;
  Request rq;
  rq.subrun = 40;
  rq.from = 2;
  rq.prev_decision = sample_decision(n, 39);
  rq.last_processed = rq.prev_decision.max_processed;
  rq.oldest_waiting.assign(n, kNoSeq);

  const Config config = delta_config();
  ASSERT_TRUE(request_delta_eligible(rq, config));  // gap 1: normal pace

  rq.prev_decision = sample_decision(n, 35);  // gap 5 > k + 1 at k = 1
  rq.last_processed = rq.prev_decision.max_processed;
  EXPECT_FALSE(request_delta_eligible(rq, config));

  Config deep = config;
  deep.max_subruns_in_flight = 4;  // the same gap is normal at k = 4
  EXPECT_TRUE(request_delta_eligible(rq, deep));
}

TEST(DeltaFrames, TruncationAndMutationFuzzNeverCrash) {
  const Decision anchor = sample_decision(6, 17);
  const Decision d = evolve(anchor);
  const Config config = delta_config();
  const auto frame = encode_decision_pdu(d, anchor, config);

  DecisionCache cache(8);
  cache.insert(anchor);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    DecodeContext ctx;
    ctx.cache = &cache;
    std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_FALSE(decode_pdu(prefix, &ctx).has_value()) << "cut=" << cut;
  }

  Rng rng(7);
  for (int round = 0; round < 2000; ++round) {
    auto mutated = frame;
    const std::size_t at = rng.uniform(mutated.size());
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    DecodeContext ctx;
    ctx.cache = &cache;
    auto pdu = decode_pdu(mutated, &ctx);  // any outcome, just no crash/UB
    if (pdu.has_value()) {
      if (const auto* dec = std::get_if<Decision>(&pdu.value())) {
        EXPECT_EQ(dec->n(), 6);
      }
    }
  }
}

// ---- O(changed) receive: patches, stubs and tracked reports ----

TEST(DecisionPatch, InPlacePatchEqualsTheDecodedDecision) {
  // A receiver holding the anchor turns its own copy into the decoded
  // decision by the patch alone: the result must equal a full copy, with
  // boundary windows that drop and append, for a long random chain.
  for (const int n : {6, 100}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(static_cast<std::uint64_t>(n) + 5);
    Config config = delta_config(n);
    config.delta_snapshot_every = 1 << 20;
    config.max_subruns_in_flight = 4;
    Decision anchor = sample_decision(n, 10);
    Decision latest = anchor;  // the receiver's copy, patched in place
    for (int step = 0; step < 200; ++step) {
      Decision d = anchor;
      d.decided_at = anchor.decided_at + 1 +
                     static_cast<SubrunId>(rng.uniform(4));
      d.coordinator = static_cast<ProcessId>(rng.uniform(n));
      d.full_group = rng.uniform(2) == 0;
      for (std::uint64_t c = rng.uniform(6); c > 0; --c) {
        const auto j = static_cast<std::size_t>(rng.uniform(n));
        switch (rng.uniform(7)) {
          case 0: d.clean_upto[j] += 1; break;
          case 1: d.stable_acc[j] += 2; break;
          case 2: d.heard[j] = !d.heard[j]; break;
          case 3: d.max_processed[j] += 1; break;
          case 4:
            d.most_updated[j] = static_cast<ProcessId>(rng.uniform(n));
            break;
          case 5: d.min_waiting[j] = rng.uniform(2) == 0 ? kNoSeq : 5; break;
          default: d.attempts[j] = static_cast<std::uint8_t>(rng.uniform(4));
        }
      }
      if (rng.uniform(5) == 0) {
        ++d.stability_epoch;
        d.boundaries.push_back({d.decided_at, d.stable_acc});
        if (d.boundaries.size() > Decision::kBoundaryWindow) {
          d.boundaries.erase(d.boundaries.begin());
        }
      }
      ASSERT_TRUE(decision_delta_eligible(d, anchor, config));
      const auto frame = encode_decision_pdu(d, anchor, config);
      ASSERT_EQ(frame[0], static_cast<std::uint8_t>(PduType::kDecisionDelta));

      DecisionCache cache(8);
      const std::uint64_t anchor_digest = cache.insert(anchor);
      DecodeContext ctx;
      ctx.cache = &cache;
      Decision decoded;
      DecisionPatch patch;
      ASSERT_TRUE(decode_decision_frame(frame, &ctx, decoded, &patch).ok());
      ASSERT_EQ(decoded, d);
      EXPECT_TRUE(patch.delta);
      EXPECT_EQ(patch.anchor_at, anchor.decided_at);
      EXPECT_EQ(patch.anchor_digest, anchor_digest);
      for (const std::uint16_t j :
           patch.of(DecisionPatch::kMaxProcessed)) {
        EXPECT_NE(anchor.max_processed[j], d.max_processed[j]);
      }
      apply_patch(latest, decoded, patch);
      ASSERT_EQ(latest, d) << "step " << step;
      anchor = d;
    }
  }
}

TEST(RequestStub, StubDecodeAcceptsAndRejectsExactlyLikeFullDecode) {
  // A receiver whose own decision is at least as fresh decodes REQUEST
  // embeds as stubs. Under truncation and mutation it must accept and
  // reject the same frames as a full decode, yield the same fields apart
  // from the dropped body, and leave its anchor cache in the same state.
  const int n = 6;
  Request rq;
  rq.subrun = 36;
  rq.from = 2;
  rq.prev_decision = sample_decision(n, 35);
  rq.last_processed = rq.prev_decision.max_processed;
  rq.last_processed[3] += 2;
  rq.oldest_waiting.assign(n, kNoSeq);
  rq.oldest_waiting[1] = 7;
  const Config config = delta_config();
  const std::vector<std::vector<std::uint8_t>> frames{
      encode_request_pdu(rq, config), encode_pdu(rq)};
  ASSERT_EQ(frames[0][0], static_cast<std::uint8_t>(PduType::kRequestDelta));
  ASSERT_EQ(frames[1][0], static_cast<std::uint8_t>(PduType::kRequest));

  Rng rng(11);
  int accepted = 0;
  int stubbed = 0;
  const auto check = [&](std::span<const std::uint8_t> bytes) {
    DecisionCache full_cache(8);
    DecisionCache stub_cache(8);
    full_cache.insert(rq.prev_decision);
    stub_cache.insert(rq.prev_decision);
    DecodeContext full_ctx;
    full_ctx.cache = &full_cache;
    DecodeContext stub_ctx;
    stub_ctx.cache = &stub_cache;
    stub_ctx.stub_embeds_upto = std::numeric_limits<SubrunId>::max();
    Decision scratch;
    stub_ctx.scratch = &scratch;
    const auto full = decode_pdu(bytes, &full_ctx);
    const auto stub = decode_pdu(bytes, &stub_ctx);
    ASSERT_EQ(full.has_value(), stub.has_value());
    EXPECT_EQ(full_ctx.anchor_missed, stub_ctx.anchor_missed);
    EXPECT_TRUE(full_cache == stub_cache);
    if (!full.has_value()) {
      EXPECT_EQ(full.error(), stub.error());
      return;
    }
    ++accepted;
    ASSERT_EQ(full.value().index(), stub.value().index());
    const auto* a = std::get_if<Request>(&full.value());
    if (a == nullptr) {
      EXPECT_TRUE(full.value() == stub.value());
      return;
    }
    const auto* b = std::get_if<Request>(&stub.value());
    EXPECT_EQ(a->subrun, b->subrun);
    EXPECT_EQ(a->from, b->from);
    EXPECT_EQ(a->last_processed, b->last_processed);
    EXPECT_EQ(a->oldest_waiting, b->oldest_waiting);
    Decision expected_stub;
    expected_stub.decided_at = a->prev_decision.decided_at;
    EXPECT_EQ(b->prev_decision, expected_stub);
    ++stubbed;
  };
  for (const auto& frame : frames) {
    check(frame);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      check(std::span<const std::uint8_t>(frame.data(), cut));
    }
    for (int round = 0; round < 3000; ++round) {
      auto mutated = frame;
      for (std::uint64_t flips = 1 + rng.uniform(3); flips > 0; --flips) {
        mutated[rng.uniform(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      check(mutated);
    }
  }
  EXPECT_GT(stubbed, 2) << "the unmutated frames, at least";
  EXPECT_GE(accepted, stubbed);

  // An embed fresher than the receiver's decision keeps its body.
  DecisionCache cache(8);
  cache.insert(rq.prev_decision);
  for (const auto& frame : frames) {
    DecodeContext ctx;
    ctx.cache = &cache;
    ctx.stub_embeds_upto = rq.prev_decision.decided_at - 1;
    const auto pdu = decode_pdu(frame, &ctx);
    ASSERT_TRUE(pdu.has_value());
    EXPECT_EQ(std::get<Request>(pdu.value()), rq);
  }
}

TEST(RequestReport, TrackedEncoderMatchesReferenceEncoder) {
  // The REQUEST_DELTA a member sends is built from the origins its entity
  // tracks as off the anchor. Under random traffic — lost copies that
  // park later messages, retransmissions that release them, cross-origin
  // dependencies — and a random anchor chain with full replacements, lag,
  // snapshot subruns (no tracked encode runs) and a view widening, it
  // must be byte-identical to the O(n) reference encoder.
  for (const int n : {10, 100, 300}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Config config = delta_config(n);
    config.max_subruns_in_flight = 4;
    MtEntity mt(config, 0, nullptr);
    Rng rng(static_cast<std::uint64_t>(n) * 7 + 1);
    const int founders = n - n / 10;
    const SubrunId widen_at = 60;
    Decision anchor = Decision::initial(founders);
    anchor.decided_at = 0;
    std::vector<Seq> next(static_cast<std::size_t>(n), 1);
    std::vector<AppMessage> lost;
    std::vector<wire::SeqOverride> processed;
    std::vector<wire::SeqOverride> waiting;
    int compared = 0;
    int with_waiting = 0;
    for (SubrunId subrun = 1; subrun <= 240; ++subrun) {
      for (std::uint64_t i = 1 + rng.uniform(4); i > 0; --i) {
        const auto origin = static_cast<ProcessId>(rng.uniform(n));
        AppMessage msg;
        msg.mid = {origin, next[origin]++};
        if (msg.mid.seq > 1) msg.deps.push_back({origin, msg.mid.seq - 1});
        const auto other = static_cast<ProcessId>(rng.uniform(n));
        if (other != origin && next[other] > 1 && rng.uniform(3) == 0) {
          msg.deps.push_back({other, next[other] - 1});
        }
        if (rng.uniform(5) == 0) {
          lost.push_back(std::move(msg));
        } else {
          (void)mt.submit(std::move(msg), subrun);
        }
      }
      if (!lost.empty() && rng.uniform(3) == 0) {
        const std::size_t at = rng.uniform(lost.size());
        (void)mt.submit(std::move(lost[at]), subrun);
        lost.erase(lost.begin() + static_cast<std::ptrdiff_t>(at));
      }

      // The anchor moves as a process's latest_ does: patched in place
      // (the caller marks the max_processed entries it moved) or replaced
      // (the caller marks everything).
      if (subrun == widen_at) {
        while (anchor.n() < n) {
          std::vector<ProcessId> joiner{static_cast<ProcessId>(anchor.n())};
          admit_joins(anchor, joiner, n);
        }
        anchor.decided_at = subrun - 1;
        mt.mark_report_dirty_all();
      } else if (rng.uniform(10) == 0) {
        for (Seq& seq : anchor.max_processed) {
          seq = static_cast<Seq>(rng.uniform(8));
        }
        anchor.decided_at = subrun - 1;
        mt.mark_report_dirty_all();
      } else if (rng.uniform(6) != 0) {  // otherwise the anchor lags
        for (std::uint64_t c = rng.uniform(5); c > 0; --c) {
          const auto j = static_cast<ProcessId>(rng.uniform(anchor.n()));
          const Seq prefix = mt.prefix(j);
          anchor.max_processed[j] =
              rng.uniform(2) == 0 ? prefix
                                  : prefix + static_cast<Seq>(rng.uniform(3));
          mt.mark_report_dirty(j);
        }
        anchor.decided_at = subrun - 1;
      }

      const int width = anchor.n();
      if (!request_delta_eligible(anchor.decided_at, subrun, width, config)) {
        continue;  // a full frame goes out; nothing tracked is touched
      }
      Request rq;
      rq.subrun = subrun;
      rq.from = 0;
      mt.last_processed_into(rq.last_processed, width);
      mt.oldest_waiting_into(rq.oldest_waiting, width);
      rq.prev_decision = anchor;
      ASSERT_TRUE(request_delta_eligible(rq, config));
      wire::Writer reference;
      encode_request_delta_body(reference, rq, 0xA5A5);

      mt.report_overrides(anchor.max_processed, processed, waiting);
      wire::Writer tracked;
      encode_request_delta_body(tracked, subrun, 0, anchor.decided_at, 0xA5A5,
                                processed, waiting);
      ASSERT_TRUE(std::ranges::equal(reference.view(), tracked.view()))
          << "subrun " << subrun;
      ++compared;
      if (!waiting.empty()) ++with_waiting;
    }
    EXPECT_GT(compared, 150);
    EXPECT_GT(with_waiting, 20) << "parked traffic must be exercised";
  }
}

// ---- a process's decision receive path ----

/// Endpoint decorator for one member: forwards its traffic, lets the test
/// inject datagrams through the member's upcall, and counts allocations
/// made while the member handles each frame `measured` selects (DECISION
/// frames unless the test says otherwise).
class TapEndpoint final : public net::Endpoint {
 public:
  explicit TapEndpoint(std::unique_ptr<net::Endpoint> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] ProcessId self() const override { return inner_->self(); }
  void set_upcall(UpcallFn fn) override {
    upcall_ = std::move(fn);
    inner_->set_upcall(
        [this](ProcessId src, std::span<const std::uint8_t> bytes) {
          if (drop_app_every > 0 && !bytes.empty() &&
              bytes[0] == static_cast<std::uint8_t>(PduType::kAppData) &&
              ++app_frames % drop_app_every == 0) {
            return;  // a receive omission
          }
          if (!measuring || !measured(bytes)) {
            upcall_(src, bytes);
            return;
          }
          const std::uint64_t before = testsupport::thread_allocations();
          upcall_(src, bytes);
          allocations += testsupport::thread_allocations() - before;
          ++frames;
        });
  }
  void send(ProcessId dst, wire::SharedBuffer payload) override {
    if (on_send) on_send(payload.view());
    inner_->send(dst, std::move(payload));
  }
  void broadcast(wire::SharedBuffer payload) override {
    inner_->broadcast(std::move(payload));
  }
  using Endpoint::broadcast;
  using Endpoint::send;

  void inject(ProcessId src, std::span<const std::uint8_t> bytes) {
    upcall_(src, bytes);
  }

  bool measuring = false;
  bool (*measured)(std::span<const std::uint8_t>) = is_decision_frame;
  /// Drops every drop_app_every-th application frame the member receives
  /// (0 = none), so it lags the group and recovers.
  int drop_app_every = 0;
  int app_frames = 0;
  /// Sees every unicast frame the member sends, before it leaves.
  std::function<void(std::span<const std::uint8_t>)> on_send;
  std::uint64_t frames = 0;
  std::uint64_t allocations = 0;

 private:
  std::unique_ptr<net::Endpoint> inner_;
  UpcallFn upcall_;
};

/// A sim group whose member `tapped` talks through a TapEndpoint.
struct TappedGroup {
  TappedGroup(const Config& config, ProcessId tapped)
      : injector(fault::FaultPlan(config.n), Rng(51)),
        network(sim, injector, {.min_latency = 5, .max_latency = 9},
                Rng(52)) {
    for (ProcessId p = 0; p < config.n; ++p) {
      auto endpoint = std::make_unique<net::DatagramEndpoint>(network, p);
      if (p == tapped) {
        auto tap_endpoint = std::make_unique<TapEndpoint>(std::move(endpoint));
        tap = tap_endpoint.get();
        endpoints.push_back(std::move(tap_endpoint));
      } else {
        endpoints.push_back(std::move(endpoint));
      }
      processes.push_back(std::make_unique<UrcgcProcess>(
          config, p, sim, *endpoints.back(), injector));
    }
    for (auto& process : processes) process->start();
  }

  void run_subruns(int count, int messages_per_subrun) {
    for (int i = 0; i < count; ++i) {
      for (int m = 0; m < messages_per_subrun; ++m) {
        processes[static_cast<std::size_t>(next_sender++ % processes.size())]
            ->data_rq({1, 2, 3});
      }
      sim.run_until(sim.now() + sim.clock().ticks_per_subrun());
    }
  }

  sim::Simulation sim;
  fault::FaultInjector injector;
  net::Network network;
  std::vector<std::unique_ptr<net::Endpoint>> endpoints;
  std::vector<std::unique_ptr<UrcgcProcess>> processes;
  TapEndpoint* tap = nullptr;
  int next_sender = 0;
};

TEST(DecisionReceive, GarbageDeltaLeavesLiveStateUntouched) {
  Config config = delta_config(6);
  TappedGroup g(config, 1);
  g.run_subruns(5, 2);
  const UrcgcProcess& p = *g.processes[1];
  const Decision anchor = p.latest_decision();
  ASSERT_GE(anchor.decided_at, 0);
  ASSERT_NE(p.decision_cache().find(anchor.decided_at, decision_digest(anchor)),
            nullptr);

  Decision next = anchor;
  next.decided_at = anchor.decided_at + 1;
  next.coordinator = (anchor.coordinator + 1) % anchor.n();
  next.full_group = false;  // no cleaning: the point would be arbitrary
  next.attempts[2] = static_cast<std::uint8_t>(next.attempts[2] + 1);
  next.max_processed[3] += 1;
  Config never_snapshot = config;
  never_snapshot.delta_snapshot_every = 1 << 20;
  bool was_delta = false;
  const auto valid = encode_decision_pdu(next, anchor, never_snapshot, true,
                                         &was_delta);
  ASSERT_TRUE(was_delta);

  // Out-of-order sparse indices: (3, 1) in the first section. Index 3 is
  // read and patched before index 1 fails the canonical-order check.
  wire::Writer disordered;
  disordered.u8(static_cast<std::uint8_t>(PduType::kDecisionDelta));
  disordered.i64(anchor.decided_at);
  disordered.u64(decision_digest(anchor));
  disordered.i64(next.decided_at);
  disordered.u16(static_cast<std::uint16_t>(next.coordinator));
  disordered.u8(0);
  disordered.u16(2);
  disordered.u16(3);
  disordered.u32(9);
  disordered.u16(1);
  disordered.u32(9);

  const DecisionCache cache_before = p.decision_cache();
  const auto applied_before = p.counters().decisions_applied;
  const auto rejected_before = p.counters().decode_rejected;
  const ProcessId src = next.coordinator;
  std::uint64_t garbage = 0;
  for (std::size_t cut = 1; cut < valid.size(); ++cut) {
    g.tap->inject(src, std::span<const std::uint8_t>(valid.data(), cut));
    ++garbage;
  }
  g.tap->inject(src, disordered.view());
  ++garbage;

  EXPECT_EQ(p.latest_decision(), anchor);
  EXPECT_EQ(p.counters().decisions_applied, applied_before);
  EXPECT_TRUE(p.decision_cache() == cache_before);
  EXPECT_EQ(p.counters().decode_rejected, rejected_before + garbage);

  // The next valid frame still decodes against the untouched anchor.
  g.tap->inject(src, valid);
  EXPECT_EQ(p.latest_decision(), next);
  EXPECT_EQ(p.counters().decisions_applied, applied_before + 1);
  EXPECT_NE(p.decision_cache().find(next.decided_at, decision_digest(next)),
            nullptr);
}

TEST(DecisionReceive, AllocationBudgetAtOneHundredMembers) {
  // Steady state at n = 100 with delta frames and a 4-deep pipeline: a
  // member decodes each DECISION into its scratch, commits it to the ring
  // and applies it without allocating.
  Config config = delta_config(100);
  config.max_subruns_in_flight = 4;
  TappedGroup g(config, 7);
  g.run_subruns(12, 4);  // warm-up: the ring wraps, vectors reach size
  g.tap->measuring = true;
  g.run_subruns(16, 4);  // includes the subrun-16 full snapshot frame
  ASSERT_GE(g.tap->frames, 12u);
  EXPECT_LE(static_cast<double>(g.tap->allocations) /
                static_cast<double>(g.tap->frames),
            0.5)
      << g.tap->allocations << " allocations over " << g.tap->frames
      << " DECISION frames";
  EXPECT_FALSE(g.processes[7]->halted());
}

bool is_request_frame(std::span<const std::uint8_t> bytes) {
  return !bytes.empty() &&
         (bytes[0] == static_cast<std::uint8_t>(PduType::kRequest) ||
          bytes[0] == static_cast<std::uint8_t>(PduType::kRequestDelta));
}

TEST(RequestReceive, AllocationBudgetAtOneHundredMembers) {
  // A coordinator at n = 100 keeps only what it merges from each REQUEST:
  // the two report vectors. The embed arrives as a stub (it is no fresher
  // than the coordinator's own decision) and the inbox window was sized
  // for the whole group. Member 16 coordinates subrun 16, a snapshot
  // subrun whose REQUESTs are full frames; member 21 takes delta frames.
  for (const ProcessId coordinator : {16, 21}) {
    SCOPED_TRACE("coordinator " + std::to_string(coordinator));
    Config config = delta_config(100);
    config.max_subruns_in_flight = 4;
    TappedGroup g(config, coordinator);
    g.tap->measured = is_request_frame;
    g.run_subruns(12, 4);  // warm-up: the ring wraps, vectors reach size
    g.tap->measuring = true;
    g.run_subruns(16, 4);
    ASSERT_GE(g.tap->frames, 90u);
    EXPECT_LE(static_cast<double>(g.tap->allocations) /
                  static_cast<double>(g.tap->frames),
              2.2)
        << g.tap->allocations << " allocations over " << g.tap->frames
        << " REQUEST frames";
    EXPECT_FALSE(g.processes[static_cast<std::size_t>(coordinator)]->halted());
  }
}

TEST(RequestReport, SentRequestsMatchTheReferenceEncoder) {
  // End to end: every REQUEST_DELTA a live member sends must equal the
  // O(n) reference encoding of the member's state at that moment — its
  // full report vectors against its latest decision — across the
  // decisions it patches in place, the full ones, and its own merges.
  // The member loses some application frames, so decisions advertise
  // messages it lacks, it parks their successors and recovers them.
  Config config = delta_config(40);
  config.max_subruns_in_flight = 4;
  TappedGroup g(config, 5);
  g.tap->drop_app_every = 7;
  const UrcgcProcess& member = *g.processes[5];
  int checked = 0;
  g.tap->on_send = [&](std::span<const std::uint8_t> frame) {
    if (frame.empty() ||
        frame[0] != static_cast<std::uint8_t>(PduType::kRequestDelta)) {
      return;
    }
    Request rq;
    wire::Reader head(frame.subspan(1));
    rq.subrun = head.i64().value();
    rq.from = member.id();
    member.mt().last_processed_into(rq.last_processed, member.view());
    member.mt().oldest_waiting_into(rq.oldest_waiting, member.view());
    rq.prev_decision = member.latest_decision();
    bool was_delta = false;
    const auto reference = encode_request_pdu(rq, config, &was_delta);
    EXPECT_TRUE(was_delta);
    EXPECT_TRUE(std::ranges::equal(reference, frame))
        << "subrun " << rq.subrun;
    ++checked;
  };
  g.run_subruns(48, 6);
  EXPECT_GT(checked, 30);
  EXPECT_GT(member.counters().recovery_msgs, 0u);
  EXPECT_FALSE(member.halted());
}

TEST(DecisionReceive, LiveMembersStayEqualToTheirCachedDecision) {
  // Members patch latest_ in place from each delta. Whatever path each
  // decision took, latest_ must hash to a decision its ring holds — i.e.
  // be byte-for-byte a decision some frame or its own merge produced.
  Config config = delta_config(20);
  config.max_subruns_in_flight = 4;
  TappedGroup g(config, 3);
  for (int block = 0; block < 6; ++block) {
    g.run_subruns(7, 3);
    for (const auto& process : g.processes) {
      const Decision& latest = process->latest_decision();
      ASSERT_GE(latest.decided_at, 0);
      EXPECT_NE(process->decision_cache().find(latest.decided_at,
                                               decision_digest(latest)),
                nullptr)
          << "p" << process->id() << " at " << latest.decided_at;
    }
  }
}

// ---- cross-encoding equivalence through the experiment harness ----

harness::ExperimentConfig encoded_config(ControlEncoding encoding, int k,
                                         std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.protocol.n = 6;
  config.protocol.control_encoding = encoding;
  config.protocol.max_subruns_in_flight = k;
  config.workload.burst = k;
  config.workload.load = 1.0;
  config.workload.total_messages = 96;
  config.workload.cross_dep_prob = 0.2;
  config.limit_rtd = 2000;
  config.seed = seed;
  return config;
}

void expect_identical_decisions(const harness::ExperimentReport& full,
                                const harness::ExperimentReport& delta) {
  ASSERT_EQ(full.decisions.size(), delta.decisions.size());
  for (std::size_t i = 0; i < full.decisions.size(); ++i) {
    const auto& a = full.decisions[i];
    const auto& b = delta.decisions[i];
    EXPECT_EQ(a.subrun, b.subrun) << "decision " << i;
    EXPECT_EQ(a.at, b.at) << "decision " << i;
    EXPECT_EQ(a.coordinator, b.coordinator) << "decision " << i;
    EXPECT_EQ(a.full_group, b.full_group) << "decision " << i;
    EXPECT_EQ(a.alive, b.alive) << "decision " << i;
  }
}

TEST(CrossEncoding, SimTracesAreDecisionForDecisionIdentical) {
  // Same seed, full vs delta, paced and pipelined: on the deterministic
  // sim the encodings must produce the same execution — every decision at
  // the same tick by the same coordinator — while delta moves fewer
  // control bytes.
  for (const int k : {1, 4}) {
    const auto full =
        harness::Experiment(encoded_config(ControlEncoding::kFull, k, 77))
            .run();
    const auto delta =
        harness::Experiment(encoded_config(ControlEncoding::kDelta, k, 77))
            .run();
    for (const auto* report : {&full, &delta}) {
      EXPECT_TRUE(report->all_ok());
      EXPECT_TRUE(report->quiescent);
      EXPECT_TRUE(report->workload_exhausted);
    }
    EXPECT_EQ(full.generated, delta.generated) << "k=" << k;
    EXPECT_EQ(full.processed_events, delta.processed_events) << "k=" << k;
    EXPECT_EQ(full.end_tick, delta.end_tick) << "k=" << k;
    expect_identical_decisions(full, delta);

    const auto control = [](const harness::ExperimentReport& r) {
      return r.traffic.bytes(stats::MsgClass::kRequest) +
             r.traffic.bytes(stats::MsgClass::kDecision);
    };
    EXPECT_LT(control(delta) * 2, control(full)) << "k=" << k;
  }
}

TEST(CrossEncoding, ThreadsBackendCarriesDeltaFrames) {
  // Free-running threads are not tick-deterministic, so the contract here
  // is clause-level: both encodings move the full workload with every
  // correctness clause green.
  for (const ControlEncoding encoding :
       {ControlEncoding::kFull, ControlEncoding::kDelta}) {
    auto config = encoded_config(encoding, 4, 33);
    config.backend = harness::Backend::kThreads;
    config.thread_tick_ns = 0;
    const auto report = harness::Experiment(config).run();
    EXPECT_TRUE(report.all_ok());
    EXPECT_TRUE(report.workload_exhausted);
    EXPECT_EQ(report.generated, 96u);
    EXPECT_EQ(report.processed_events, 96u * 6);
  }
}

TEST(CrossEncoding, SustainedOmissionStormStaysCorrectInDeltaMode) {
  // The fallback state machine under fire: a sustained storm with the
  // bounded-buffer caps engaged, running entirely on delta frames. Anchor
  // misses behave as omissions (already in the fault model), so every
  // clause must hold; the periodic snapshot cadence and the unanchorable
  // first decision guarantee the fallback counter moves.
  auto config = encoded_config(ControlEncoding::kDelta, 1, 91);
  config.faults.omission_prob = 0.01;
  config.faults.window_end_rtd = -1.0;
  config.protocol.waiting_cap = 24;
  config.protocol.inbox_cap = 6;
  config.protocol.history_threshold = 48;
  config.protocol.recovery_backoff_base = 1;
  config.limit_rtd = 8000;

  obs::Registry registry(config.protocol.n);
  config.metrics = &registry;
  const auto report = harness::Experiment(config).run();
  EXPECT_TRUE(report.all_ok()) << (report.violations.empty()
                                       ? ""
                                       : report.violations.front());
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.workload_exhausted);
  EXPECT_GT(registry.counter_total(registry.find("core.control_bytes_delta")),
            0u);
  EXPECT_GT(registry.counter_total(registry.find("core.delta_fallbacks")),
            0u);
}

TEST(CrossEncoding, PipelinedDeltaKeepsAnchorsHitFaultFree) {
  // At depth 4 the auto cache window (2k + 1 = 9) must keep every
  // fault-free anchor resolvable: no anchor misses, and the only full
  // frames are the snapshot cadence and the unanchorable boot decisions.
  auto config = encoded_config(ControlEncoding::kDelta, 4, 55);
  obs::Registry registry(config.protocol.n);
  config.metrics = &registry;
  const auto report = harness::Experiment(config).run();
  EXPECT_TRUE(report.all_ok());
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(registry.counter_total(registry.find("core.delta_anchor_miss")),
            0u);
  EXPECT_GT(registry.counter_total(registry.find("core.control_bytes_delta")),
            registry.counter_total(registry.find("core.control_bytes_full")));
}

TEST(CrossEncoding, HealingPartitionZombiesLearnTheirDeathInDeltaMode) {
  // Regression (found by the checker's delta sweep, seed 10): members {1,5}
  // are partitioned long enough to be cut, then healed. They missed the
  // membership-change snapshot, so every post-heal delta decision chained
  // past them — they never decoded their own death sentence, never
  // suicided, and quiesced as "survivors" with diverged processed sets.
  // The coordinator-side receiver-coverage proof plus the zombie-sighting
  // snapshot must make delta mode end exactly like full mode: zombies
  // suicide, the survivors agree.
  check::CaseConfig scenario;
  scenario.n = 6;
  scenario.messages = 29;
  scenario.load = 0.969747;
  scenario.cross_dep_prob = 0.360586;
  scenario.seed = 10;
  scenario.schedule = 8517399826778874703ULL;
  scenario.backend = harness::Backend::kSim;
  scenario.limit_rtd = 400.0;
  scenario.partitions.push_back({{1, 5}, 1.70113, 6.88791});

  scenario.encoding = ControlEncoding::kDelta;
  const check::CaseOutcome delta = check::run_case(scenario);
  EXPECT_TRUE(delta.ok()) << delta.first_problem();

  scenario.encoding = ControlEncoding::kFull;
  const check::CaseOutcome full = check::run_case(scenario);
  EXPECT_TRUE(full.ok()) << full.first_problem();
}

TEST(CrossEncoding, HealedForkedMinorityStillGetsItsSnapshot) {
  // Regression (checker partition sweep, seed 387): a cut minority of
  // three kept coordinating its own subruns on a partition-era fork, so
  // its post-heal frames anchored on decisions the majority never saw.
  // Those requests died at *decode* (anchor miss), never reaching the
  // dead-member drop that arms the zombie snapshot — and the majority's
  // delta decisions stayed undecodable for the fork in return. The anchor
  // miss itself must arm the snapshot: any frame we cannot expand proves
  // its sender is off our chain and needs a full frame to reconverge.
  check::CaseConfig scenario;
  scenario.n = 8;
  scenario.messages = 26;
  scenario.load = 0.736374;
  scenario.seed = 11337622355969065434ULL;
  scenario.schedule = 5282335576870494681ULL;
  scenario.backend = harness::Backend::kSim;
  scenario.limit_rtd = 400.0;
  scenario.partitions.push_back({{2, 7, 4}, 2.84024, 8.80334});

  scenario.encoding = ControlEncoding::kDelta;
  const check::CaseOutcome delta = check::run_case(scenario);
  EXPECT_TRUE(delta.ok()) << delta.first_problem();

  scenario.encoding = ControlEncoding::kFull;
  const check::CaseOutcome full = check::run_case(scenario);
  EXPECT_TRUE(full.ok()) << full.first_problem();
}

}  // namespace
}  // namespace urcgc::core
