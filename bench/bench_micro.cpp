// Micro-benchmarks (google-benchmark) for the hot paths of the urcgc
// implementation: wire codecs (application frames decoded with and
// without an owning buffer), the delta control plane's digest, anchor
// cache, delta decode and apply, REQUEST_DELTA encode and decode, history
// operations, in-order processing,
// waiting-list park and release, vector clocks, decision computation, and
// raw simulator throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "causal/vector_clock.hpp"
#include "causal/waiting_list.hpp"
#include "core/coordinator.hpp"
#include "core/delta.hpp"
#include "core/history.hpp"
#include "core/mt_entity.hpp"
#include "core/pdu.hpp"
#include "harness/experiment.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace urcgc;

void BM_EncodeDecision(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const core::Decision d = core::Decision::initial(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_pdu(d));
  }
  state.SetLabel(std::to_string(core::encode_pdu(d).size()) + " bytes");
}
BENCHMARK(BM_EncodeDecision)->Arg(10)->Arg(40)->Arg(100);

void BM_DecodeDecision(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto bytes = core::encode_pdu(core::Decision::initial(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_pdu(bytes));
  }
}
BENCHMARK(BM_DecodeDecision)->Arg(10)->Arg(40)->Arg(100);

// A decision with every per-member vector populated, as the control plane
// carries it at steady state.
core::Decision populated_decision(int n, SubrunId decided_at) {
  core::Decision d = core::Decision::initial(n);
  d.decided_at = decided_at;
  d.coordinator = static_cast<ProcessId>(decided_at % n);
  for (int j = 0; j < n; ++j) {
    d.clean_upto[j] = 100 + j;
    d.stable_acc[j] = 101 + j;
    d.heard[j] = (j % 3) != 0;
    d.max_processed[j] = 110 + j;
    d.most_updated[j] = (j + 1) % n;
    d.min_waiting[j] = (j % 7 == 0) ? 112 + j : kNoSeq;
  }
  return d;
}

void BM_DecisionDigest(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const core::Decision d = populated_decision(n, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decision_digest(d));
  }
}
BENCHMARK(BM_DecisionDigest)->Arg(10)->Arg(100)->Arg(1000);

// Arg 1 = 1: re-inserting a cached decision (every member inserts each
// decision it decodes and applies). Arg 1 = 0: every insert is a new
// decision that evicts the oldest of a full window.
void BM_DecisionCacheInsert(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const bool hit = state.range(1) != 0;
  constexpr std::size_t kWindow = 8;
  std::vector<core::Decision> pool;
  for (std::size_t i = 0; i <= kWindow; ++i) {
    pool.push_back(populated_decision(n, 20 + static_cast<SubrunId>(i)));
  }
  core::DecisionCache cache(kWindow);
  for (const core::Decision& d : pool) cache.insert(d);
  std::size_t next = 0;
  for (auto _ : state) {
    const core::Decision& d = hit ? pool.back() : pool[next];
    next = (next + 1) % pool.size();
    cache.insert(d);
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetLabel(hit ? "hit" : "miss");
}
BENCHMARK(BM_DecisionCacheInsert)
    ->Args({10, 1})
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({10, 0})
    ->Args({100, 0})
    ->Args({1000, 0});

// One received DECISION_DELTA: anchor lookup, reconstruction, and the
// insert that makes the result the next anchor.
void BM_DecodeDecisionDelta(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const core::Decision anchor = populated_decision(n, 17);
  core::Decision d = anchor;
  d.decided_at = 18;
  d.coordinator = 18 % n;
  d.max_processed[0] += 3;
  d.stable_acc[n / 2] += 1;
  d.attempts[n - 1] = 1;
  core::Config config;
  config.n = n;
  config.control_encoding = core::ControlEncoding::kDelta;
  const auto frame = core::encode_decision_pdu(d, anchor, config);
  core::DecisionCache cache(8);
  cache.insert(anchor);
  for (auto _ : state) {
    core::DecodeContext ctx;
    ctx.cache = &cache;
    benchmark::DoNotOptimize(core::decode_pdu(frame, &ctx));
  }
  state.SetLabel(std::to_string(frame.size()) + " bytes");
}
BENCHMARK(BM_DecodeDecisionDelta)->Arg(10)->Arg(100)->Arg(1000);

// A member applying a received DECISION_DELTA whose anchor is its own
// latest decision: decode into a reused scratch with the patch recorded,
// then patch the member's copy in place (the digest and the ring commit
// are BM_DecisionDigest's and BM_DecisionCacheInsert's).
void BM_ApplyDecisionDelta(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const core::Decision anchor = populated_decision(n, 17);
  core::Decision d = anchor;
  d.decided_at = 18;
  d.coordinator = 18 % n;
  d.max_processed[0] += 3;
  d.stable_acc[n / 2] += 1;
  d.attempts[n - 1] = 1;
  core::Config config;
  config.n = n;
  config.control_encoding = core::ControlEncoding::kDelta;
  const auto frame = core::encode_decision_pdu(d, anchor, config);
  core::DecisionCache cache(8);
  cache.insert(anchor);
  core::Decision scratch;
  core::DecisionPatch patch;
  core::Decision latest = anchor;
  for (auto _ : state) {
    core::DecodeContext ctx;
    ctx.cache = &cache;
    benchmark::DoNotOptimize(
        core::decode_decision_frame(frame, &ctx, scratch, &patch));
    core::apply_patch(latest, scratch, patch);  // idempotent once applied
    benchmark::DoNotOptimize(latest.decided_at);
  }
}
BENCHMARK(BM_ApplyDecisionDelta)->Arg(10)->Arg(100)->Arg(1000);

// The REQUEST_DELTA a coordinator receives from a member whose embed it
// already holds: anchor lookup, the two report sections, and the embed
// decoded as a stub.
void BM_DecodeRequestDelta(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::Request rq;
  rq.subrun = 19;
  rq.from = 1;
  rq.prev_decision = populated_decision(n, 18);
  rq.last_processed = rq.prev_decision.max_processed;
  rq.last_processed[1] += 2;
  rq.last_processed[n / 2] += 1;
  rq.oldest_waiting.assign(static_cast<std::size_t>(n), kNoSeq);
  rq.oldest_waiting[n - 1] = 7;
  core::Config config;
  config.n = n;
  config.control_encoding = core::ControlEncoding::kDelta;
  const auto frame = core::encode_request_pdu(rq, config);
  core::DecisionCache cache(8);
  cache.insert(rq.prev_decision);
  core::Decision scratch;
  for (auto _ : state) {
    core::DecodeContext ctx;
    ctx.cache = &cache;
    ctx.stub_embeds_upto = rq.prev_decision.decided_at;
    ctx.scratch = &scratch;
    benchmark::DoNotOptimize(core::decode_pdu(frame, &ctx));
  }
  state.SetLabel(std::to_string(frame.size()) + " bytes");
}
BENCHMARK(BM_DecodeRequestDelta)->Arg(10)->Arg(100)->Arg(1000);

// A member's request round under delta encoding: the report built from
// the origins its entity tracks (three that processed past the anchor,
// one with a parked message) and written as a REQUEST_DELTA.
void BM_EncodeRequestDelta(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::Config config;
  config.n = n;
  config.control_encoding = core::ControlEncoding::kDelta;
  core::MtEntity mt(config, 0, nullptr);
  for (const ProcessId origin : {1, n / 2, n - 1}) {
    core::AppMessage msg;
    msg.mid = {origin, 1};
    (void)mt.submit(std::move(msg), 0);
  }
  core::AppMessage parked;
  parked.mid = {2, 2};
  parked.deps = {{2, 1}};
  (void)mt.submit(std::move(parked), 0);
  const core::Decision anchor = core::Decision::initial(n);
  std::vector<wire::SeqOverride> processed;
  std::vector<wire::SeqOverride> waiting;
  for (auto _ : state) {
    mt.report_overrides(anchor.max_processed, processed, waiting);
    wire::Writer w(64);
    w.u8(static_cast<std::uint8_t>(core::PduType::kRequestDelta));
    core::encode_request_delta_body(w, 19, 0, 18, 0x1234, processed,
                                    waiting);
    benchmark::DoNotOptimize(std::move(w).take());
  }
}
BENCHMARK(BM_EncodeRequestDelta)->Arg(10)->Arg(100)->Arg(1000);

void BM_EncodeAppMessage(benchmark::State& state) {
  core::AppMessage msg;
  msg.mid = {3, 1000};
  msg.deps = {{3, 999}, {0, 500}, {7, 123}};
  msg.payload =
      std::vector<std::uint8_t>(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_pdu(msg));
  }
}
BENCHMARK(BM_EncodeAppMessage)->Arg(32)->Arg(512);

// One received kAppData frame decoded as the process does. Args: deps,
// payload bytes, and whether the frame has an owner. With one (what the
// datagram endpoint and the socket runtime pass) the payload becomes a
// slice of the frame and up to DepList::kInline deps stay inline; without
// one (a span-only decorator) the frame is copied once first.
void BM_DecodeAppFrame(benchmark::State& state) {
  const auto deps = static_cast<Seq>(state.range(0));
  const auto payload = static_cast<std::size_t>(state.range(1));
  const bool owned = state.range(2) != 0;
  core::AppMessage msg;
  msg.mid = {3, 1000};
  for (Seq d = 0; d < deps; ++d) {
    msg.deps.push_back({static_cast<ProcessId>(d), 500 + d});
  }
  msg.payload = std::vector<std::uint8_t>(payload, 0xAB);
  const wire::SharedBuffer frame = core::encode_pdu(msg);
  for (auto _ : state) {
    const wire::FrameRef ref =
        owned ? wire::FrameRef(frame) : wire::FrameRef(frame.view());
    auto pdu = ref.owner() != nullptr ? core::decode_pdu(ref.pin(), nullptr)
                                      : core::decode_pdu(ref.view());
    benchmark::DoNotOptimize(pdu);
  }
  state.SetLabel(owned ? "owned" : "span-only");
}
BENCHMARK(BM_DecodeAppFrame)
    ->ArgNames({"deps", "payload", "owned"})
    ->ArgsProduct({{1, 2, 5}, {64, 1024}, {1, 0}});

// Steady-state store/purge on one long-lived history, as the protocol
// uses it: each iteration stores a batch and purges it again. Arg 1 picks
// the shape. 0: dense per-origin sequences, interleaved across 8 origins
// (what the protocol produces). 1: global seq s stored under origin s % 8,
// so every origin's seqs are 8 apart (the index's hole path).
void BM_HistoryStorePurge(benchmark::State& state) {
  const auto batch = static_cast<Seq>(state.range(0));
  const bool sparse = state.range(1) != 0;
  constexpr int kOrigins = 8;
  core::History history(kOrigins);
  Seq base = 0;
  for (auto _ : state) {
    if (sparse) {
      for (Seq s = base + 1; s <= base + batch; ++s) {
        history.store(core::AppMessage{
            {static_cast<ProcessId>(s % kOrigins), s}, {}, 0, {}});
      }
      base += batch;
    } else {
      const Seq per_origin = batch / kOrigins;
      for (Seq s = base + 1; s <= base + per_origin; ++s) {
        for (ProcessId p = 0; p < kOrigins; ++p) {
          history.store(core::AppMessage{{p, s}, {}, 0, {}});
        }
      }
      base += per_origin;
    }
    for (ProcessId p = 0; p < kOrigins; ++p) history.purge_upto(p, base);
    benchmark::DoNotOptimize(history.total_size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_HistoryStorePurge)
    ->ArgNames({"batch", "sparse"})
    ->Args({64, 0})
    ->Args({1024, 0})
    ->Args({1024, 1});

// In-order processing through MtEntity::submit: every message's only
// dependency is its origin's previous one, so each is processed at once
// and nothing parks. Each iteration submits a batch round-robin across 8
// origins and then cleans it, which keeps the history at steady state.
// Building the messages (their deps/payload vectors) is not timed.
void BM_MtEntityInOrderChain(benchmark::State& state) {
  const auto batch = static_cast<Seq>(state.range(0));
  constexpr int kOrigins = 8;
  core::Config config;
  config.n = kOrigins;
  core::MtEntity mt(config, 0, nullptr);
  std::vector<core::AppMessage> messages;
  Seq base = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Seq per_origin = batch / kOrigins;
    messages.clear();
    for (Seq s = base + 1; s <= base + per_origin; ++s) {
      for (ProcessId p = 0; p < kOrigins; ++p) {
        core::AppMessage msg{{p, s}, {}, s, {0xAB}};
        if (s > 1) msg.deps.push_back({p, s - 1});
        messages.push_back(std::move(msg));
      }
    }
    base += per_origin;
    state.ResumeTiming();
    for (core::AppMessage& msg : messages) {
      mt.submit(std::move(msg), base);
    }
    mt.clean(std::vector<Seq>(kOrigins, base));
    benchmark::DoNotOptimize(mt.history_size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MtEntityInOrderChain)->Arg(1024);

void BM_HistoryRange(benchmark::State& state) {
  core::History history(4);
  for (Seq s = 1; s <= 4096; ++s) {
    history.store(core::AppMessage{{1, s}, {}, 0, {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.range(1, 2000, 2040, 8));
  }
}
BENCHMARK(BM_HistoryRange);

void BM_WaitingListChainRelease(benchmark::State& state) {
  const auto depth = static_cast<Seq>(state.range(0));
  std::vector<causal::PendingMessage> released;
  for (auto _ : state) {
    state.PauseTiming();
    causal::WaitingList list;
    for (Seq s = 2; s <= depth; ++s) {
      causal::PendingMessage pending;
      pending.mid = {0, s};
      pending.deps = {{0, s - 1}};
      const Mid missing{0, s - 1};
      list.add(std::move(pending), std::span(&missing, 1));
    }
    state.ResumeTiming();
    // Process the root; each release unlocks exactly one successor.
    Mid current{0, 1};
    for (Seq s = 1; s < depth; ++s) {
      released.clear();
      list.on_processed(current, released);
      if (released.empty()) break;
      current = released.front().mid;
    }
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_WaitingListChainRelease)->Arg(64)->Arg(512);

void BM_WaitingListParkRelease(benchmark::State& state) {
  // The pipelined steady state: `depth` messages from 10 origins park on
  // one or two missing predecessors each, then the predecessors arrive and
  // release them all. One list serves every iteration, and the same
  // message objects cycle between the list and the release buffer, so the
  // timing covers parking and releasing only.
  constexpr ProcessId kOrigins = 10;
  constexpr Seq kBlockerBase = 1'000'000;
  const auto depth = static_cast<std::size_t>(state.range(0));
  causal::WaitingList list;
  std::vector<causal::PendingMessage> parked(depth);
  std::vector<Mid> blockers;
  for (std::size_t i = 0; i < depth; ++i) {
    const auto origin = static_cast<ProcessId>(i % kOrigins);
    const Seq seq = static_cast<Seq>(i / kOrigins) + 1;
    parked[i].mid = {origin, seq};
    parked[i].deps = {{origin, kBlockerBase + seq},
                      {(origin + 1) % kOrigins, kBlockerBase + seq}};
    parked[i].payload = std::vector<std::uint8_t>(64, 0);
    blockers.insert(blockers.end(), parked[i].deps.begin(),
                    parked[i].deps.end());
  }
  std::sort(blockers.begin(), blockers.end());
  blockers.erase(std::unique(blockers.begin(), blockers.end()),
                 blockers.end());
  std::vector<causal::PendingMessage> released;
  released.reserve(depth);
  for (auto _ : state) {
    for (causal::PendingMessage& msg : parked) {
      const Mid missing[2] = {msg.deps[0], msg.deps[1]};
      const std::size_t count = msg.mid.seq % 2 == 0 ? 2 : 1;
      list.add(std::move(msg), std::span(missing, count));
    }
    for (const Mid& blocker : blockers) list.on_processed(blocker, released);
    benchmark::DoNotOptimize(released.data());
    benchmark::ClobberMemory();
    if (released.size() != depth || !list.empty()) {
      state.SkipWithError("not every parked message was released");
      break;
    }
    parked.swap(released);
    released.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_WaitingListParkRelease)->Arg(16)->Arg(128)->Arg(1024);

void BM_VectorClockDeliverable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  causal::VectorClock local(n);
  causal::VectorClock msg(n);
  msg.tick(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local.deliverable(msg, 0));
  }
}
BENCHMARK(BM_VectorClockDeliverable)->Arg(10)->Arg(100);

void BM_ComputeDecision(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::CoordinatorInputs inputs;
  inputs.subrun = 10;
  inputs.coordinator = 0;
  inputs.base = core::Decision::initial(n);
  for (ProcessId p = 0; p < n; ++p) {
    core::Request rq;
    rq.subrun = 10;
    rq.from = p;
    rq.last_processed.assign(n, 5);
    rq.oldest_waiting.assign(n, kNoSeq);
    rq.prev_decision = inputs.base;
    inputs.requests.push_back(std::move(rq));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_decision(inputs));
  }
}
BENCHMARK(BM_ComputeDecision)->Arg(10)->Arg(40);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (Tick t = 0; t < 1000; ++t) {
      queue.schedule(t % 97, [] {});
    }
    while (!queue.empty()) {
      auto [at, fn] = queue.pop();
      benchmark::DoNotOptimize(at);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_FullProtocolRun(benchmark::State& state) {
  // End-to-end: a complete reliable run, n=8, 80 messages.
  for (auto _ : state) {
    harness::ExperimentConfig config;
    config.protocol.n = 8;
    config.workload.load = 0.6;
    config.workload.total_messages = 80;
    config.seed = 37;
    config.limit_rtd = 2000;
    auto report = harness::Experiment(config).run();
    benchmark::DoNotOptimize(report.processed_events);
  }
}
BENCHMARK(BM_FullProtocolRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
