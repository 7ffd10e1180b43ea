#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/logging.h"
#include "core/tensor.h"
#include "obs/log.h"

namespace mcond {
namespace net {

namespace {

constexpr size_t kReadChunk = 256 * 1024;

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Per-connection state, owned by the IO thread. `rbuf[0, rlen)` holds the
/// received bytes not yet consumed; the vector's size is only its
/// zero-filled capacity, grown when a read needs room. ProcessFrames
/// handles a frame only at an 8-byte-aligned offset, which is what
/// guarantees the 8-byte body alignment the zero-copy parse requires —
/// vector storage is 16-byte aligned and the frame header is 16 bytes.
struct NetServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  std::vector<uint8_t> rbuf;
  size_t rlen = 0;
  std::vector<uint8_t> wbuf;
  size_t wbuf_off = 0;

  bool HasPendingWrite() const { return wbuf_off < wbuf.size(); }
  /// Drops the first `n` received bytes, moving the rest to offset 0.
  void Consume(size_t n) {
    if (n == 0) return;
    std::memmove(rbuf.data(), rbuf.data() + n, rlen - n);
    rlen -= n;
  }
};

/// One in-flight request: the materialized batch the tenant server reads,
/// the output tensor its worker fills, and the encoded response frame.
/// Pooled and recycled — batch/out/wire keep their capacity across
/// requests, so a steady request shape serves without heap traffic.
/// `server` and `latency_us` ride here so the completion callback captures
/// only the context pointer and fits std::function's inline buffer.
struct NetServer::RequestContext {
  NetServer* server = nullptr;
  obs::Histogram* latency_us = nullptr;
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  bool graph_batch = false;
  HeldOutBatch batch;
  Tensor out;
  std::vector<uint8_t> wire;
};

NetServer::NetServer(ModelRegistry& registry, const NetServerOptions& options)
    : registry_(registry),
      options_(options),
      connections_(obs::GetCounter("mcond.net.connections")),
      requests_(obs::GetCounter("mcond.net.requests")),
      rejected_(obs::GetCounter("mcond.net.rejected")),
      invalid_(obs::GetCounter("mcond.net.invalid")),
      frame_errors_(obs::GetCounter("mcond.net.frame_errors")),
      bytes_rx_(obs::GetCounter("mcond.net.bytes_rx")),
      bytes_tx_(obs::GetCounter("mcond.net.bytes_tx")),
      connections_active_(obs::GetGauge("mcond.net.connections_active")) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  MCOND_CHECK(!started_) << "NetServer::Start called twice";
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = ErrnoStatus("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, options_.backlog) != 0) {
    Status s = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    Status s = ErrnoStatus("getsockname");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) {
    Status s = ErrnoStatus("fcntl(listen)");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    Status s = ErrnoStatus("pipe2");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  stopping_.store(false, std::memory_order_relaxed);
  started_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  MCOND_LOG(INFO) << "net: serving " << registry_.size() << " tenant(s) on "
                  << options_.bind_address << ":" << port_;
  return Status::Ok();
}

void NetServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  // The IO thread may have drained a context whose callback is still inside
  // Wake(); close the pipe only once no callback is.
  while (waking_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  started_ = false;
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) {
      close(wake_fds_[i]);
      wake_fds_[i] = -1;
    }
  }
}

void NetServer::Wake() {
  const char b = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &b, 1);
}

void NetServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pollfd (0 for fixed fds)
  bool listener_open = true;
  for (;;) {
    DrainCompletions();

    const bool stop = stopping_.load(std::memory_order_acquire);
    if (stop && listener_open) {
      // Stop accepting immediately; drain what was admitted.
      close(listen_fd_);
      listen_fd_ = -1;
      listener_open = false;
    }
    if (stop && inflight_ == 0) {
      bool pending = false;
      for (auto& [id, conn] : conns_) {
        if (conn->HasPendingWrite()) pending = true;
      }
      if (!pending) break;
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfd_conn.push_back(0);
    if (listener_open &&
        static_cast<int>(conns_.size()) < options_.max_connections) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    const size_t fixed = pfds.size();
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn->HasPendingWrite()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      pfd_conn.push_back(id);
    }

    // While stopping, wake periodically so the drain condition is
    // re-checked even if a completion signal raced the poll.
    const int timeout_ms = stop ? 50 : -1;
    const int ready = poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      MCOND_LOG(ERROR) << "net: poll: " << std::strerror(errno);
      break;
    }
    if (ready <= 0) continue;

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fixed == 2 && (pfds[1].revents & POLLIN)) AcceptConnections();

    for (size_t i = fixed; i < pfds.size(); ++i) {
      const uint64_t id = pfd_conn[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Connection* conn = it->second.get();
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(id);
        continue;
      }
      if ((pfds[i].revents & POLLOUT) && !FlushWrites(conn)) {
        CloseConnection(id);
        continue;
      }
      if ((pfds[i].revents & POLLIN) && !HandleReadable(conn)) {
        CloseConnection(id);
        continue;
      }
    }
  }
  for (auto& [id, conn] : conns_) close(conn->fd);
  conns_.clear();
  connections_active_.Set(0.0);
}

void NetServer::AcceptConnections() {
  for (;;) {
    if (static_cast<int>(conns_.size()) >= options_.max_connections) return;
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error; poll retries
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conns_.emplace(conn->id, std::move(conn));
    connections_.Increment();
    connections_active_.Set(static_cast<double>(conns_.size()));
  }
}

bool NetServer::HandleReadable(Connection* conn) {
  // The buffer grows (and zero-fills) only when less than one chunk is
  // free; steady traffic reads into the same bytes every time.
  if (conn->rbuf.size() < conn->rlen + kReadChunk) {
    conn->rbuf.resize(conn->rlen + kReadChunk);
  }
  const ssize_t got = recv(conn->fd, conn->rbuf.data() + conn->rlen,
                           conn->rbuf.size() - conn->rlen, 0);
  if (got < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  if (got == 0) return false;  // peer closed
  conn->rlen += static_cast<size_t>(got);
  bytes_rx_.Increment(got);
  if (!ProcessFrames(conn)) return false;
  // Level-triggered poll re-fires while the socket holds more data, so one
  // recv per readiness event is enough.
  return true;
}

bool NetServer::ProcessFrames(Connection* conn) {
  size_t off = 0;  // start of the next unconsumed frame
  for (;;) {
    const size_t avail = conn->rlen - off;
    if (avail < kFrameHeaderBytes) break;
    FrameHeader header;
    Status s = ParseFrameHeader(conn->rbuf.data() + off, avail,
                                options_.max_frame_bytes, &header);
    if (!s.ok()) {
      frame_errors_.Increment();
      MCOND_LOG(WARN) << "net: closing connection " << conn->id << ": "
                      << s.ToString();
      return false;
    }
    if (header.type != FrameType::kRequest) {
      frame_errors_.Increment();
      MCOND_LOG(WARN) << "net: closing connection " << conn->id
                      << ": unexpected response frame from a client";
      return false;
    }
    const size_t total =
        kFrameHeaderBytes + static_cast<size_t>(header.body_len);
    if (avail < total) break;
    if (off % 8 != 0) {
      // The previous body's length was not a multiple of 8: move this
      // frame to offset 0 so its body lands 8-byte aligned.
      conn->Consume(off);
      off = 0;
    }
    HandleRequestFrame(conn, header,
                       conn->rbuf.data() + off + kFrameHeaderBytes);
    off += total;
    if (!FlushWrites(conn)) return false;
  }
  // Once per read: the unconsumed tail (a partial frame, if any) moves to
  // offset 0.
  conn->Consume(off);
  return true;
}

void NetServer::HandleRequestFrame(Connection* conn,
                                   const FrameHeader& header,
                                   const uint8_t* body) {
  requests_.Increment();
  // Best-effort request id for error replies on bodies too short to parse.
  uint64_t rid = 0;
  if (header.body_len >= sizeof(rid)) std::memcpy(&rid, body, sizeof(rid));

  RequestView view;
  Status s = ParseRequestBody(body, header.body_len, header.flags, &view);
  if (!s.ok()) {
    invalid_.Increment();
    ReplyError(conn, rid, WireStatus::kInvalidArgument, RejectReason::kNone,
               s.message());
    return;
  }
  Tenant* tenant = registry_.Find(view.tenant);
  if (tenant == nullptr) {
    invalid_.Increment();
    ReplyError(conn, view.request_id, WireStatus::kNotFound,
               RejectReason::kNone,
               "unknown tenant '" + std::string(view.tenant) + "'");
    return;
  }
  tenant->requests->Increment();
  if (!tenant->quota.TryAcquire(obs::MonotonicMicros())) {
    rejected_.Increment();
    tenant->rejected->Increment();
    ReplyError(conn, view.request_id, WireStatus::kRejected,
               RejectReason::kQuotaExceeded, "tenant quota exceeded");
    return;
  }
  s = ValidateRequestCsr(view);
  if (!s.ok()) {
    invalid_.Increment();
    ReplyError(conn, view.request_id, WireStatus::kInvalidArgument,
               RejectReason::kNone, s.message());
    return;
  }

  RequestContext* ctx = AcquireContext();
  ctx->server = this;
  ctx->latency_us = tenant->latency_us;
  ctx->conn_id = conn->id;
  ctx->request_id = view.request_id;
  ctx->graph_batch = view.graph_batch;
  MaterializeBatch(view, &ctx->batch);

  const Status st = tenant->server->Submit(
      ctx->batch, ctx->graph_batch, &ctx->out,
      [ctx](const ServeTiming& timing) {
        // Worker thread: encode here so the IO thread only splices bytes.
        ctx->wire.clear();
        EncodeResponseFrame(ctx->request_id, WireStatus::kOk,
                            RejectReason::kNone, timing.queue_wait_us(),
                            timing.service_us(), {}, &ctx->out, &ctx->wire);
        ctx->latency_us->Record(timing.latency_us());
        NetServer* server = ctx->server;
        server->waking_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(server->completion_mu_);
          server->completed_.push_back(ctx);
        }
        server->Wake();
        server->waking_.fetch_sub(1, std::memory_order_release);
      });
  if (!st.ok()) {
    if (st.code() == StatusCode::kResourceExhausted ||
        st.code() == StatusCode::kUnavailable) {
      // The tenant's server said no — the protocol-level REJECTED path of
      // the paper-scale serving story. A full queue is transient; an
      // unavailable server is draining away.
      rejected_.Increment();
      tenant->rejected->Increment();
      ReplyError(conn, view.request_id, WireStatus::kRejected,
                 st.code() == StatusCode::kResourceExhausted
                     ? RejectReason::kQueueFull
                     : RejectReason::kShuttingDown,
                 st.message());
    } else {
      invalid_.Increment();
      ReplyError(conn, view.request_id, WireStatus::kInvalidArgument,
                 RejectReason::kNone, st.message());
    }
    ReleaseContext(ctx);
    return;
  }
  ++inflight_;
}

void NetServer::ReplyError(Connection* conn, uint64_t request_id,
                           WireStatus status, RejectReason reason,
                           std::string_view message) {
  EncodeResponseFrame(request_id, status, reason, 0, 0, message, nullptr,
                      &conn->wbuf);
}

bool NetServer::FlushWrites(Connection* conn) {
  while (conn->HasPendingWrite()) {
    const ssize_t wrote =
        send(conn->fd, conn->wbuf.data() + conn->wbuf_off,
             conn->wbuf.size() - conn->wbuf_off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;
    }
    conn->wbuf_off += static_cast<size_t>(wrote);
    bytes_tx_.Increment(wrote);
  }
  if (!conn->HasPendingWrite()) {
    conn->wbuf.clear();
    conn->wbuf_off = 0;
  } else if (conn->wbuf_off >= (size_t{1} << 20)) {
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() +
                         static_cast<ptrdiff_t>(conn->wbuf_off));
    conn->wbuf_off = 0;
  }
  return true;
}

void NetServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close(it->second->fd);
  conns_.erase(it);
  connections_active_.Set(static_cast<double>(conns_.size()));
}

void NetServer::DrainCompletions() {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    draining_.swap(completed_);
  }
  for (RequestContext* ctx : draining_) {
    --inflight_;
    auto it = conns_.find(ctx->conn_id);
    if (it != conns_.end()) {
      Connection* conn = it->second.get();
      conn->wbuf.insert(conn->wbuf.end(), ctx->wire.begin(),
                        ctx->wire.end());
      if (!FlushWrites(conn)) CloseConnection(ctx->conn_id);
    }
    // Connection gone → the response is dropped; the context still
    // recycles.
    ReleaseContext(ctx);
  }
  draining_.clear();
}

NetServer::RequestContext* NetServer::AcquireContext() {
  if (!free_contexts_.empty()) {
    RequestContext* ctx = free_contexts_.back();
    free_contexts_.pop_back();
    return ctx;
  }
  contexts_.push_back(std::make_unique<RequestContext>());
  return contexts_.back().get();
}

void NetServer::ReleaseContext(RequestContext* ctx) {
  ctx->wire.clear();
  free_contexts_.push_back(ctx);
}

}  // namespace net
}  // namespace mcond
