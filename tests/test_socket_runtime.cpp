// SocketRuntime unit tests: bind/create lifecycle, frame round-trips over
// real loopback sockets, tx batching, decode-boundary rejection of
// truncated/garbage datagrams, and shutdown accounting (no leaked fds, all
// in-flight datagrams counted into discarded_on_shutdown()).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "runtime/socket.hpp"
#include "wire/shared_buffer.hpp"

namespace urcgc::rt {
namespace {

SocketConfig socket_config(int n, Tick round_ticks = 10) {
  SocketConfig config;
  config.n = n;
  config.clock = RoundClock(round_ticks);
  config.tick_duration = std::chrono::nanoseconds(0);  // free-running
  return config;
}

std::unique_ptr<SocketRuntime> make_runtime(SocketConfig config) {
  auto created = SocketRuntime::create(std::move(config));
  EXPECT_TRUE(created.has_value()) << created.error();
  return std::move(created).value();
}

wire::SharedBuffer payload_of(std::initializer_list<std::uint8_t> bytes) {
  return wire::SharedBuffer::take(std::vector<std::uint8_t>(bytes));
}

/// Serializes a valid frame header exactly as SocketRuntime does (LE).
std::vector<std::uint8_t> make_frame(std::uint32_t magic, std::uint32_t src,
                                     std::uint64_t sent_at, std::uint64_t due,
                                     std::span<const std::uint8_t> payload,
                                     std::uint32_t claimed_len) {
  std::vector<std::uint8_t> frame(SocketRuntime::kHeaderSize + payload.size());
  const auto put32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto put64 = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      frame[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put32(0, magic);
  put32(4, src);
  put64(8, sent_at);
  put64(16, due);
  put32(24, claimed_len);
  std::copy(payload.begin(), payload.end(),
            frame.begin() + static_cast<std::ptrdiff_t>(
                                SocketRuntime::kHeaderSize));
  return frame;
}

/// Throwaway UDP socket for injecting raw datagrams into a runtime port.
class RawSender {
 public:
  RawSender() { fd_ = ::socket(AF_INET, SOCK_DGRAM, 0); }
  ~RawSender() {
    if (fd_ >= 0) ::close(fd_);
  }
  void send_to(std::uint16_t port, const void* data, std::size_t len) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::sendto(fd_, data, len, 0,
                       reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)),
              static_cast<ssize_t>(len));
  }
  [[nodiscard]] std::uint16_t bind_ephemeral() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len),
              0);
    return ntohs(bound.sin_port);
  }

 private:
  int fd_ = -1;
};

#ifdef __linux__
int open_fd_count() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}
#endif

TEST(SocketRuntime, CreateBindsDistinctPortsPerContext) {
  auto rt = make_runtime(socket_config(3));
  std::vector<std::uint16_t> ports;
  for (int idx = 0; idx <= 3; ++idx) {  // 3 workers + driver
    ports.push_back(rt->port(idx));
    EXPECT_NE(ports.back(), 0) << "context " << idx;
  }
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(std::unique(ports.begin(), ports.end()), ports.end())
      << "contexts must not share a socket";
}

TEST(SocketRuntime, DriverSendRoundTripsThroughRealSocket) {
  auto rt = make_runtime(socket_config(2));
  std::mutex mu;
  std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> received;
  rt->bind_rx(1, [&](ProcessId src, Tick /*sent_at*/,
                     wire::SharedBuffer payload) {
    const auto view = payload.view();
    std::lock_guard<std::mutex> lock(mu);
    received.emplace_back(
        src, std::vector<std::uint8_t>(view.begin(), view.end()));
  });
  rt->send(0, 1, /*sent_at=*/0, /*due=*/5, payload_of({0xAB, 0xCD, 0xEF}));
  rt->run_until(29);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 0);
  EXPECT_EQ(received[0].second, (std::vector<std::uint8_t>{0xAB, 0xCD, 0xEF}));
  EXPECT_EQ(rt->tx_datagrams(), 1u);
  EXPECT_EQ(rt->rx_datagrams(), 1u);
  EXPECT_EQ(rt->rx_rejected(), 0u);
}

TEST(SocketRuntime, WorkerBurstKeepsFifoAndBatchesSyscalls) {
  // Worker 0 sends a burst larger than max_batch to worker 1 each round:
  // arrival order must stay per-channel FIFO and the burst must be packed
  // into sendmmsg batches (syscalls well below datagram count on Linux).
  constexpr int kPerRound = 20;
  constexpr int kRounds = 5;
  auto config = socket_config(2);
  config.max_batch = 16;
  auto rt = make_runtime(std::move(config));

  std::mutex mu;
  std::vector<std::uint8_t> order;
  rt->bind_rx(1, [&](ProcessId, Tick, wire::SharedBuffer payload) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(payload.view()[0]);
  });
  std::uint8_t next = 0;
  rt->on_round(0, [&](RoundId r) {
    if (r >= kRounds) return;
    for (int i = 0; i < kPerRound; ++i) {
      rt->send(0, 1, rt->now(), rt->now() + 5, payload_of({next++}));
    }
  });
  rt->run_until(10 * (kRounds + 2) - 1);

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kPerRound * kRounds));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::uint8_t>(i)) << "at " << i;
  }
  EXPECT_EQ(rt->tx_datagrams(), static_cast<std::uint64_t>(kPerRound * kRounds));
  EXPECT_EQ(rt->tx_dropped(), 0u);
#ifdef __linux__
  // 20 frames/round flush as ceil(20/16) = 2 sendmmsg calls.
  EXPECT_LE(rt->send_syscalls(), rt->tx_datagrams() / 8)
      << "sendmmsg batching not effective";
#endif
}

TEST(SocketRuntime, GarbageDatagramsAreCountedAndDroppedNotFatal) {
  obs::Registry registry(2);
  auto config = socket_config(2);
  config.metrics = &registry;
  auto rt = make_runtime(std::move(config));
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> received;
  rt->bind_rx(1, [&](ProcessId, Tick, wire::SharedBuffer payload) {
    const auto view = payload.view();
    std::lock_guard<std::mutex> lock(mu);
    received.emplace_back(view.begin(), view.end());
  });

  const std::vector<std::uint8_t> body{1, 2, 3, 4};
  const auto valid = make_frame(SocketRuntime::kMagic, 0, 0, 5, body,
                                static_cast<std::uint32_t>(body.size()));
  RawSender raw;
  // Random prefixes of a valid frame: empty, mid-header, one short of a
  // complete header, and a header with no payload bytes behind it.
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, std::size_t{27},
                                SocketRuntime::kHeaderSize}) {
    raw.send_to(rt->port(1), valid.data(), len);
  }
  // Corrupt magic, claimed payload length beyond the datagram, and an
  // out-of-range source id.
  const auto bad_magic = make_frame(0xDEADBEEF, 0, 0, 5, body, 4);
  raw.send_to(rt->port(1), bad_magic.data(), bad_magic.size());
  const auto bad_len = make_frame(SocketRuntime::kMagic, 0, 0, 5, body, 100);
  raw.send_to(rt->port(1), bad_len.data(), bad_len.size());
  const auto bad_src = make_frame(SocketRuntime::kMagic, 99, 0, 5, body, 4);
  raw.send_to(rt->port(1), bad_src.data(), bad_src.size());
  // Well-formed frames from sockets the runtime does not own: the header's
  // src is only a claim, so a foreign sender cannot pose as member 0 —
  // neither from an unbound socket nor from one bound on loopback like a
  // real context.
  raw.send_to(rt->port(1), valid.data(), valid.size());
  RawSender spoofer;
  ASSERT_NE(spoofer.bind_ephemeral(), 0);
  const std::vector<std::uint8_t> spoof_body{6, 6};
  const auto spoof = make_frame(SocketRuntime::kMagic, 0, 0, 5, spoof_body,
                                static_cast<std::uint32_t>(spoof_body.size()));
  spoofer.send_to(rt->port(1), spoof.data(), spoof.size());

  rt->run_until(29);
  EXPECT_TRUE(received.empty()) << "a raw frame passed the decode boundary";
  EXPECT_EQ(rt->rx_rejected(), 10u);
  EXPECT_EQ(registry.counter_total(registry.find("net.decode_rejected")), 10u);

  // The runtime must remain fully functional after rejecting garbage:
  // valid traffic from its own sockets is still accepted.
  rt->send(0, 1, rt->now(), rt->now() + 5, payload_of({9}));
  rt->run_until(59);
  ASSERT_EQ(received.size(), 1u) << "valid frame lost after the garbage";
  EXPECT_EQ(received[0], std::vector<std::uint8_t>{9});
}

TEST(SocketRuntime, ShutdownCountsInFlightDatagramsAndClosesSockets) {
#ifdef __linux__
  const int fds_before = open_fd_count();
#endif
  {
    auto rt = make_runtime(socket_config(2));
    rt->bind_rx(1, [](ProcessId, Tick, wire::SharedBuffer) {});
    // Two driver-context sends left unflushed (no run call)...
    rt->send(0, 1, 0, 5, payload_of({1}));
    rt->send(0, 1, 0, 5, payload_of({2}));
    // ...and three raw datagrams parked in worker 1's receive buffer.
    RawSender raw;
    const std::array<std::uint8_t, 4> junk{7, 7, 7, 7};
    for (int i = 0; i < 3; ++i) {
      raw.send_to(rt->port(1), junk.data(), junk.size());
    }
    rt->shutdown();
    EXPECT_EQ(rt->discarded_datagrams(), 5u);
    EXPECT_EQ(rt->discarded_on_shutdown(), 5u);
    // Idempotent: a second shutdown (and the destructor's) changes nothing.
    rt->shutdown();
    EXPECT_EQ(rt->discarded_on_shutdown(), 5u);
  }
#ifdef __linux__
  EXPECT_EQ(open_fd_count(), fds_before) << "socket fds leaked";
#endif
}

TEST(SocketRuntime, BindFailureReturnsErrorInsteadOfCrashing) {
  // Occupy a port, then ask the runtime to bind a range starting there.
  RawSender blocker;
  const std::uint16_t taken = blocker.bind_ephemeral();
  ASSERT_NE(taken, 0);
#ifdef __linux__
  const int fds_before = open_fd_count();
#endif
  auto config = socket_config(2);
  config.port_base = taken;
  auto created = SocketRuntime::create(std::move(config));
  ASSERT_FALSE(created.has_value());
  EXPECT_NE(created.error().find("bind"), std::string::npos)
      << created.error();
#ifdef __linux__
  EXPECT_EQ(open_fd_count(), fds_before)
      << "failed create leaked partially-bound sockets";
#endif
}

}  // namespace
}  // namespace urcgc::rt
