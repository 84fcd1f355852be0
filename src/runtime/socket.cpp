#include "runtime/socket.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "common/assert.hpp"

namespace urcgc::rt {

namespace {

// Frame header layout (little-endian, SocketRuntime::kHeaderSize bytes):
//   u32 magic | i32 src | i64 sent_at | i64 due | u32 payload_len
void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// One tx attempt failing with these errnos is transient back-pressure:
// yield and retry (counted); anything else is a hard error for that
// datagram.
bool transient_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == EINTR || err == ENOMEM;
}

constexpr int kRetryBudget = 4096;  // yields per datagram before dropping

bool same_address(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_family == b.sin_family && a.sin_port == b.sin_port &&
         a.sin_addr.s_addr == b.sin_addr.s_addr;
}

}  // namespace

struct SocketRuntime::Context {
  int fd = -1;
  std::uint16_t port = 0;
  sockaddr_in addr{};  // bound address: where frames for this context go
  // Owner-thread-only working state:
  std::vector<TxEntry> tx;
  std::vector<std::uint8_t> rx_buf;  // max_batch * max_datagram slices
  std::vector<sockaddr_in> rx_from;  // source address of each rx_buf slice
#ifdef __linux__
  // recvmmsg/sendmmsg headers, reused across calls: they only ever grow to
  // max_batch, so a round's syscalls allocate nothing.
  std::vector<mmsghdr> rx_msgs;
  std::vector<iovec> rx_iovs;
  std::vector<mmsghdr> tx_msgs;
  std::vector<std::array<iovec, 2>> tx_iovs;
#endif
  // Diagnostics: written by the owning thread, read by anyone (relaxed).
  std::atomic<std::uint64_t> tx_datagrams{0};
  std::atomic<std::uint64_t> rx_datagrams{0};
  std::atomic<std::uint64_t> send_calls{0};
  std::atomic<std::uint64_t> recv_calls{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> tx_dropped{0};
  std::atomic<std::uint64_t> rejected{0};
};

Result<std::unique_ptr<SocketRuntime>, std::string> SocketRuntime::create(
    SocketConfig config) {
  using R = Result<std::unique_ptr<SocketRuntime>, std::string>;
  config.max_batch = std::max(config.max_batch, 1);
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  auto fail = [&fds](std::string msg) {
    for (int fd : fds) ::close(fd);
    return R{Unexpected<std::string>(std::move(msg))};
  };
  if (config.n < 1) return fail("socket backend: n must be >= 1");
  if (config.max_datagram <= kHeaderSize) {
    return fail("socket backend: max_datagram must exceed the header size");
  }
  const int total = config.n + 1;  // workers + driver
  fds.reserve(total);
  ports.reserve(total);
  for (int i = 0; i < total; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
      return fail(std::string("socket backend: socket() failed for context ") +
                  std::to_string(i) + ": " + std::strerror(errno));
    }
    fds.push_back(fd);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return fail(std::string("socket backend: O_NONBLOCK failed: ") +
                  std::strerror(errno));
    }
    // Buffer sizing is best effort: a too-small rcvbuf only costs drops
    // under burst, never correctness.
    int buf_bytes = config.rcvbuf_bytes;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const auto want =
        config.port_base == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(config.port_base + i);
    addr.sin_port = htons(want);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail(std::string("socket backend: bind(127.0.0.1:") +
                  std::to_string(want) + ") failed for context " +
                  std::to_string(i) + ": " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return fail(std::string("socket backend: getsockname failed: ") +
                  std::strerror(errno));
    }
    ports.push_back(ntohs(bound.sin_port));
  }
  return R{std::unique_ptr<SocketRuntime>(
      new SocketRuntime(std::move(config), std::move(fds), std::move(ports)))};
}

SocketRuntime::SocketRuntime(SocketConfig config, std::vector<int> fds,
                             std::vector<std::uint16_t> ports)
    : ThreadedRuntime(static_cast<const ThreadedConfig&>(config)),
      socket_config_(config),
      rx_fns_(static_cast<std::size_t>(config.n)) {
  contexts_.reserve(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    auto ctx = std::make_unique<Context>();
    ctx->fd = fds[i];
    ctx->port = ports[i];
    ctx->addr.sin_family = AF_INET;
    ctx->addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ctx->addr.sin_port = htons(ports[i]);
    contexts_.push_back(std::move(ctx));
  }
  if (socket_config_.metrics != nullptr) {
    obs::Registry& reg = *socket_config_.metrics;
    m_tx_dgrams_ = reg.counter("socket.tx_datagrams");
    m_rx_dgrams_ = reg.counter("socket.rx_datagrams");
    m_send_calls_ = reg.counter("socket.send_calls");
    m_recv_calls_ = reg.counter("socket.recv_calls");
    m_retries_ = reg.counter("socket.send_retries");
    m_tx_dropped_ = reg.counter("socket.tx_dropped");
    m_decode_rejected_ = reg.counter("net.decode_rejected");
    m_discarded_dgrams_ = reg.counter("socket.discarded_datagrams");
    const auto hi = static_cast<double>(socket_config_.max_batch) + 1.0;
    m_tx_batch_ = reg.histogram(
        "socket.tx_batch", obs::HistogramSpec{0.0, hi, socket_config_.max_batch});
    m_rx_batch_ = reg.histogram(
        "socket.rx_batch", obs::HistogramSpec{0.0, hi, socket_config_.max_batch});
  }
}

SocketRuntime::~SocketRuntime() {
  // Run the whole shutdown while this object's vtable is still in place so
  // discard_external() dispatches here; the base destructor's own call is
  // then a no-op.
  shutdown();
}

ProcessId SocketRuntime::shard(int idx) const {
  return idx < threaded_config().n ? static_cast<ProcessId>(idx) : kNoProcess;
}

void SocketRuntime::bind_rx(ProcessId dst, RxFn fn) {
  URCGC_ASSERT(dst >= 0 && dst < threaded_config().n);
  URCGC_ASSERT_MSG(!rx_fns_[static_cast<std::size_t>(dst)],
                   "socket backend: bind_rx registered twice");
  URCGC_ASSERT_MSG(static_cast<bool>(fn), "socket backend: empty rx upcall");
  rx_fns_[static_cast<std::size_t>(dst)] = std::move(fn);
}

void SocketRuntime::send(ProcessId src, ProcessId dst, Tick sent_at, Tick due,
                         wire::SharedBuffer payload) {
  URCGC_ASSERT(dst >= 0 && dst < threaded_config().n);
  URCGC_ASSERT_MSG(payload.size() + kHeaderSize <= socket_config_.max_datagram,
                   "socket backend: frame exceeds max_datagram");
  const int caller = current_worker();
  if (caller >= 0 && caller == dst) {
    // Self-send: no kernel round trip, so it keeps the mailbox backends'
    // semantics (a zero-latency task to self can still run this round; a
    // socket frame could not be observed before the next boundary).
    enqueue_local(dst, due,
                  [this, dst, src, sent_at,
                   p = std::move(payload)]() mutable {
                    URCGC_ASSERT_MSG(
                        static_cast<bool>(rx_fns_[static_cast<std::size_t>(dst)]),
                        "socket frame for unbound destination");
                    rx_fns_[static_cast<std::size_t>(dst)](src, sent_at,
                                                           std::move(p));
                  });
    return;
  }
  // Workers buffer into their own context; everything else (the driver
  // thread — i.e. the thread that calls run_until*) uses the driver
  // context. Per the Runtime contract no other thread posts traffic.
  const int idx = caller >= 0 ? caller : threaded_config().n;
  TxEntry entry;
  entry.dst = dst;
  store_u32(entry.header.data(), kMagic);
  store_u32(entry.header.data() + 4, static_cast<std::uint32_t>(src));
  store_u64(entry.header.data() + 8, static_cast<std::uint64_t>(sent_at));
  store_u64(entry.header.data() + 16, static_cast<std::uint64_t>(due));
  store_u32(entry.header.data() + 24,
            static_cast<std::uint32_t>(payload.size()));
  entry.payload = std::move(payload);
  Context& ctx = *contexts_[idx];
  ctx.tx.push_back(std::move(entry));
  if (ctx.tx.size() >= static_cast<std::size_t>(socket_config_.max_batch)) {
    flush_tx(idx);
  }
}

void SocketRuntime::flush_tx(int idx) {
  Context& ctx = *contexts_[idx];
  if (ctx.tx.empty()) return;
  const ProcessId sh = shard(idx);
  obs::Registry* reg = socket_config_.metrics;
  const auto send_one = [&](TxEntry& entry) {
    iovec iov[2];
    iov[0] = {entry.header.data(), kHeaderSize};
    iov[1] = {const_cast<std::uint8_t*>(entry.payload.data()),
              entry.payload.size()};
    msghdr msg{};
    msg.msg_name = &contexts_[entry.dst]->addr;
    msg.msg_namelen = sizeof(sockaddr_in);
    msg.msg_iov = iov;
    msg.msg_iovlen = entry.payload.size() > 0 ? 2 : 1;
    for (int attempt = 0;; ++attempt) {
      ctx.send_calls.fetch_add(1, std::memory_order_relaxed);
      if (reg != nullptr) reg->add(sh, m_send_calls_);
      if (::sendmsg(ctx.fd, &msg, 0) >= 0) {
        ctx.tx_datagrams.fetch_add(1, std::memory_order_relaxed);
        if (reg != nullptr) {
          reg->add(sh, m_tx_dgrams_);
          reg->observe(sh, m_tx_batch_, 1.0);
        }
        return;
      }
      if (!transient_errno(errno) || attempt >= kRetryBudget) {
        ctx.tx_dropped.fetch_add(1, std::memory_order_relaxed);
        if (reg != nullptr) reg->add(sh, m_tx_dropped_);
        return;
      }
      ctx.retries.fetch_add(1, std::memory_order_relaxed);
      if (reg != nullptr) reg->add(sh, m_retries_);
      std::this_thread::yield();
    }
  };
#ifdef __linux__
  if (socket_config_.max_batch > 1) {
    const auto batch_cap = static_cast<std::size_t>(socket_config_.max_batch);
    std::size_t done = 0;
    const std::size_t slots = std::min(batch_cap, ctx.tx.size());
    if (ctx.tx_msgs.size() < slots) ctx.tx_msgs.resize(slots);
    if (ctx.tx_iovs.size() < slots) ctx.tx_iovs.resize(slots);
    std::vector<mmsghdr>& msgs = ctx.tx_msgs;
    std::vector<std::array<iovec, 2>>& iovs = ctx.tx_iovs;
    int attempts = 0;
    while (done < ctx.tx.size()) {
      const auto batch = std::min(batch_cap, ctx.tx.size() - done);
      for (std::size_t i = 0; i < batch; ++i) {
        TxEntry& entry = ctx.tx[done + i];
        iovs[i][0] = {entry.header.data(), kHeaderSize};
        iovs[i][1] = {const_cast<std::uint8_t*>(entry.payload.data()),
                      entry.payload.size()};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_name = &contexts_[entry.dst]->addr;
        msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        msgs[i].msg_hdr.msg_iov = iovs[i].data();
        msgs[i].msg_hdr.msg_iovlen = entry.payload.size() > 0 ? 2 : 1;
      }
      ctx.send_calls.fetch_add(1, std::memory_order_relaxed);
      if (reg != nullptr) reg->add(sh, m_send_calls_);
      const int sent =
          ::sendmmsg(ctx.fd, msgs.data(), static_cast<unsigned>(batch), 0);
      if (sent > 0) {
        attempts = 0;
        done += static_cast<std::size_t>(sent);
        ctx.tx_datagrams.fetch_add(static_cast<std::uint64_t>(sent),
                                   std::memory_order_relaxed);
        if (reg != nullptr) {
          reg->add(sh, m_tx_dgrams_, static_cast<std::uint64_t>(sent));
          reg->observe(sh, m_tx_batch_, static_cast<double>(sent));
        }
        continue;
      }
      if (transient_errno(errno) && attempts < kRetryBudget) {
        ++attempts;
        ctx.retries.fetch_add(1, std::memory_order_relaxed);
        if (reg != nullptr) reg->add(sh, m_retries_);
        std::this_thread::yield();
        continue;
      }
      // Hard error (or budget exhausted): drop the head datagram and move
      // on — a socket-level failure must never wedge the round loop.
      attempts = 0;
      ++done;
      ctx.tx_dropped.fetch_add(1, std::memory_order_relaxed);
      if (reg != nullptr) reg->add(sh, m_tx_dropped_);
    }
    ctx.tx.clear();
    return;
  }
#endif
  for (TxEntry& entry : ctx.tx) send_one(entry);
  ctx.tx.clear();
}

void SocketRuntime::handle_frame(int idx, const std::uint8_t* data,
                                 std::size_t len, const sockaddr_in& from) {
  Context& ctx = *contexts_[idx];
  obs::Registry* reg = socket_config_.metrics;
  const auto reject = [&] {
    ctx.rejected.fetch_add(1, std::memory_order_relaxed);
    if (reg != nullptr) reg->add(shard(idx), m_decode_rejected_);
  };
  if (len < kHeaderSize || load_u32(data) != kMagic) return reject();
  const auto src = static_cast<ProcessId>(load_u32(data + 4));
  const auto sent_at = static_cast<Tick>(load_u64(data + 8));
  const auto due = static_cast<Tick>(load_u64(data + 16));
  const std::uint32_t payload_len = load_u32(data + 24);
  if (payload_len != len - kHeaderSize) return reject();
  if (src < 0 || src >= threaded_config().n) return reject();
  // The header's src is only a claim: accept it from the socket of that
  // member or of the driver context, which sends for any process.
  if (!same_address(from, contexts_[src]->addr) &&
      !same_address(from, contexts_[threaded_config().n]->addr)) {
    return reject();
  }
  if (idx >= threaded_config().n ||
      !rx_fns_[static_cast<std::size_t>(idx)]) {
    // Valid frame for a context nothing listens on (the driver, or an
    // unbound worker): nothing can consume it — count and drop.
    return reject();
  }
  // The one unavoidable rx copy: out of the kernel-filled batch buffer
  // into an immutable SharedBuffer (recorded in wire::buffer_stats()).
  wire::SharedBuffer payload = wire::SharedBuffer::copy(
      std::span<const std::uint8_t>(data + kHeaderSize, payload_len));
  enqueue_local(
      idx, due,
      [this, idx, src, sent_at, p = std::move(payload)]() mutable {
        rx_fns_[static_cast<std::size_t>(idx)](src, sent_at, std::move(p));
      });
}

void SocketRuntime::collect_external(int idx, Tick /*cutoff*/) {
  Context& ctx = *contexts_[idx];
  if (ctx.fd < 0) return;
  const ProcessId sh = shard(idx);
  obs::Registry* reg = socket_config_.metrics;
  const std::size_t slot = socket_config_.max_datagram;
#ifdef __linux__
  if (socket_config_.max_batch > 1) {
    const auto batch = static_cast<std::size_t>(socket_config_.max_batch);
    if (ctx.rx_buf.size() < batch * slot) ctx.rx_buf.resize(batch * slot);
    if (ctx.rx_from.size() < batch) ctx.rx_from.resize(batch);
    if (ctx.rx_msgs.size() < batch) ctx.rx_msgs.resize(batch);
    if (ctx.rx_iovs.size() < batch) ctx.rx_iovs.resize(batch);
    std::vector<mmsghdr>& msgs = ctx.rx_msgs;
    std::vector<iovec>& iovs = ctx.rx_iovs;
    for (;;) {
      for (std::size_t i = 0; i < batch; ++i) {
        iovs[i] = {ctx.rx_buf.data() + i * slot, slot};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_name = &ctx.rx_from[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      ctx.recv_calls.fetch_add(1, std::memory_order_relaxed);
      if (reg != nullptr) reg->add(sh, m_recv_calls_);
      const int got = ::recvmmsg(ctx.fd, msgs.data(),
                                 static_cast<unsigned>(batch), MSG_DONTWAIT,
                                 nullptr);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        return;  // EAGAIN: drained
      }
      ctx.rx_datagrams.fetch_add(static_cast<std::uint64_t>(got),
                                 std::memory_order_relaxed);
      if (reg != nullptr) {
        reg->add(sh, m_rx_dgrams_, static_cast<std::uint64_t>(got));
        reg->observe(sh, m_rx_batch_, static_cast<double>(got));
      }
      for (int i = 0; i < got; ++i) {
        const auto at = static_cast<std::size_t>(i);
        handle_frame(idx, ctx.rx_buf.data() + at * slot, msgs[at].msg_len,
                     ctx.rx_from[at]);
      }
      if (static_cast<std::size_t>(got) < batch) return;
    }
  }
#endif
  if (ctx.rx_buf.size() < slot) ctx.rx_buf.resize(slot);
  if (ctx.rx_from.empty()) ctx.rx_from.resize(1);
  for (;;) {
    ctx.recv_calls.fetch_add(1, std::memory_order_relaxed);
    if (reg != nullptr) reg->add(sh, m_recv_calls_);
    socklen_t from_len = sizeof(sockaddr_in);
    const ssize_t got = ::recvfrom(
        ctx.fd, ctx.rx_buf.data(), slot, MSG_DONTWAIT,
        reinterpret_cast<sockaddr*>(ctx.rx_from.data()), &from_len);
    if (got < 0) {
      if (errno == EINTR) continue;
      return;
    }
    ctx.rx_datagrams.fetch_add(1, std::memory_order_relaxed);
    if (reg != nullptr) {
      reg->add(sh, m_rx_dgrams_);
      reg->observe(sh, m_rx_batch_, 1.0);
    }
    handle_frame(idx, ctx.rx_buf.data(), static_cast<std::size_t>(got),
                 ctx.rx_from[0]);
  }
}

void SocketRuntime::flush_external(int idx) { flush_tx(idx); }

std::uint64_t SocketRuntime::discard_external() {
  // Called from shutdown() with every worker joined: all contexts are
  // quiescent, so draining and closing from this one thread is safe.
  std::uint64_t discarded = 0;
  std::vector<std::uint8_t> buf(socket_config_.max_datagram);
  for (auto& ctx : contexts_) {
    discarded += ctx->tx.size();
    ctx->tx.clear();
    if (ctx->fd < 0) continue;
    for (;;) {
      const ssize_t got =
          ::recv(ctx->fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (got < 0) {
        if (errno == EINTR) continue;
        break;
      }
      ++discarded;
    }
    ::close(ctx->fd);
    ctx->fd = -1;
  }
  discarded_datagrams_.store(discarded, std::memory_order_relaxed);
  if (socket_config_.metrics != nullptr && discarded > 0) {
    socket_config_.metrics->add(kNoProcess, m_discarded_dgrams_, discarded);
  }
  return discarded;
}

std::uint16_t SocketRuntime::port(int idx) const {
  URCGC_ASSERT(idx >= 0 &&
               static_cast<std::size_t>(idx) < contexts_.size());
  return contexts_[static_cast<std::size_t>(idx)]->port;
}

namespace {
template <typename F>
std::uint64_t sum_contexts(const F& get, std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += get(i);
  return total;
}
}  // namespace

std::uint64_t SocketRuntime::tx_datagrams() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->tx_datagrams.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::rx_datagrams() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->rx_datagrams.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::send_syscalls() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->send_calls.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::recv_syscalls() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->recv_calls.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::send_retries() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->retries.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::tx_dropped() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->tx_dropped.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::rx_rejected() const {
  return sum_contexts(
      [this](std::size_t i) {
        return contexts_[i]->rejected.load(std::memory_order_relaxed);
      },
      contexts_.size());
}
std::uint64_t SocketRuntime::discarded_datagrams() const {
  return discarded_datagrams_.load(std::memory_order_relaxed);
}

}  // namespace urcgc::rt
