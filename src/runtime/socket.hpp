#pragma once
// SocketRuntime: real-UDP Runtime backend — one thread AND one datagram
// socket per execution context, over localhost.
//
// Layering: SocketRuntime derives from ThreadedRuntime and keeps its whole
// execution model (one thread per process, driver-paced rounds against
// RoundClock/steady_clock, round-parity mailboxes for local timers and
// driver posts). What changes is the subnet: the runtime implements
// rt::DatagramSubnet, so net::Network hands it serialized frames instead
// of posting delivery closures. Every fault and latency draw stays inside
// Network on the sender side — the socket layer only moves bytes — which
// is what keeps sim ≡ threads ≡ socket equivalence draw-for-draw.
//
// Data path per frame:
//   tx: send() runs on the sender's context; a fixed 28-byte header
//       (magic, src, sent_at, due, payload length) is written into the
//       per-context batch and the payload stays in its wire::SharedBuffer —
//       the kernel reads it through an iovec, no userspace re-copy. The
//       batch is flushed with one sendmmsg per `max_batch` datagrams (and
//       at the end of the context's round, before it parks), one sendmsg
//       each on non-Linux systems or with max_batch = 1.
//   rx: at the top of every drain the context pulls everything its socket
//       holds (recvmmsg until EAGAIN), validates the header and the
//       sender's address — a short or corrupt frame, or one whose claimed
//       src was not sent from that member's (or the driver's) socket, is
//       counted in `net.decode_rejected` and dropped — and enqueues the
//       payload as a local task at the frame's due tick.
//
// Round synchrony: a localhost UDP send is queued into the destination
// socket's receive buffer synchronously, and a context flushes its batch
// before parking at the round barrier. So by the time the driver opens
// round r+1, every frame sent during round r is already readable — the
// "sent in round r, processed before the r+1 handler" guarantee the
// mailbox backends give holds over real sockets too.
//
// Shutdown: shutdown() joins the workers (base class), then counts frames
// still queued in socket receive buffers or unflushed tx batches into
// discarded_on_shutdown() and closes every fd. Construction is two-phase:
// create() binds all sockets first and returns an error Result (no crash,
// no leaked fds) when a port is unavailable.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "runtime/subnet.hpp"
#include "runtime/threaded.hpp"
#include "wire/shared_buffer.hpp"

struct sockaddr_in;

namespace urcgc::rt {

struct SocketConfig : ThreadedConfig {
  /// First UDP port to bind: context i binds 127.0.0.1:(port_base + i).
  /// 0 = kernel-assigned ephemeral ports (the default; never collides).
  std::uint16_t port_base = 0;
  /// Datagrams per sendmmsg/recvmmsg call. 1 = one-at-a-time sendmsg/
  /// recvmsg, the portable fallback (also used when sendmmsg is not
  /// available on the platform).
  int max_batch = 16;
  /// Largest accepted frame (header + payload). Must fit in one datagram.
  std::size_t max_datagram = 60 * 1024;
  /// SO_RCVBUF sizing request per socket (best effort).
  int rcvbuf_bytes = 1 << 22;
};

class SocketRuntime final : public ThreadedRuntime, public DatagramSubnet {
 public:
  /// Binds one UDP socket per context (n workers + the driver) and starts
  /// the worker threads. Returns an error string — with every
  /// already-bound fd closed — if any socket cannot be created or bound.
  static Result<std::unique_ptr<SocketRuntime>, std::string> create(
      SocketConfig config);

  ~SocketRuntime() override;

  DatagramSubnet* datagram_subnet() override { return this; }

  // DatagramSubnet:
  void bind_rx(ProcessId dst, RxFn fn) override;
  void send(ProcessId src, ProcessId dst, Tick sent_at, Tick due,
            wire::SharedBuffer payload) override;

  /// UDP port bound by context `idx` (0..n-1 = workers, n = driver).
  /// Remains queryable after shutdown.
  [[nodiscard]] std::uint16_t port(int idx) const;

  // Diagnostics (exact after shutdown / between runs; approximate while
  // workers run). All also land in the obs registry when one is attached.
  [[nodiscard]] std::uint64_t tx_datagrams() const;
  [[nodiscard]] std::uint64_t rx_datagrams() const;
  [[nodiscard]] std::uint64_t send_syscalls() const;
  [[nodiscard]] std::uint64_t recv_syscalls() const;
  [[nodiscard]] std::uint64_t send_retries() const;
  /// Datagrams dropped on the tx side after the retry budget ran out.
  [[nodiscard]] std::uint64_t tx_dropped() const;
  /// Frames rejected at the decode boundary (short, bad magic, length
  /// mismatch, out-of-range source, or a source address that is neither
  /// the claimed member's socket nor the driver's).
  [[nodiscard]] std::uint64_t rx_rejected() const;
  /// Datagrams still in socket buffers or unflushed batches at shutdown
  /// (also included in discarded_on_shutdown()).
  [[nodiscard]] std::uint64_t discarded_datagrams() const;

  /// Serialized frame header size (bytes); exposed for tests that craft
  /// or truncate raw frames.
  static constexpr std::size_t kHeaderSize = 28;
  static constexpr std::uint32_t kMagic = 0x55524743;  // "URGC"

 protected:
  void collect_external(int idx, Tick cutoff) override;
  void flush_external(int idx) override;
  std::uint64_t discard_external() override;

 private:
  struct TxEntry {
    ProcessId dst = kNoProcess;
    std::array<std::uint8_t, kHeaderSize> header{};
    wire::SharedBuffer payload;
  };
  struct Context;  // socket state, defined in socket.cpp

  SocketRuntime(SocketConfig config, std::vector<int> fds,
                std::vector<std::uint16_t> ports);

  [[nodiscard]] ProcessId shard(int idx) const;
  void flush_tx(int idx);
  void handle_frame(int idx, const std::uint8_t* data, std::size_t len,
                    const sockaddr_in& from);

  SocketConfig socket_config_;
  std::vector<std::unique_ptr<Context>> contexts_;  // [n workers + driver]
  std::vector<RxFn> rx_fns_;                        // [n], set via bind_rx
  std::atomic<std::uint64_t> discarded_datagrams_{0};

  obs::Metric m_tx_dgrams_{};
  obs::Metric m_rx_dgrams_{};
  obs::Metric m_send_calls_{};
  obs::Metric m_recv_calls_{};
  obs::Metric m_retries_{};
  obs::Metric m_tx_dropped_{};
  obs::Metric m_decode_rejected_{};
  obs::Metric m_discarded_dgrams_{};
  obs::Metric m_tx_batch_{};
  obs::Metric m_rx_batch_{};
};

}  // namespace urcgc::rt
