#ifndef MCOND_NET_NET_SERVER_H_
#define MCOND_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "graph/inductive.h"
#include "net/model_registry.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace mcond {
namespace net {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; port() reports the bound port after Start().
  int port = 0;
  int backlog = 64;
  /// Connection-level admission: beyond this, new connections wait in the
  /// kernel backlog instead of being accepted.
  int max_connections = 64;
  /// Frames with a larger declared body are a protocol violation (the
  /// connection is closed — a hostile length prefix must not allocate).
  uint64_t max_frame_bytes = kDefaultMaxBodyBytes;
};

/// The socket front-end over a ModelRegistry: one poll()-driven IO thread
/// owns the listener, every connection's read/write buffering, and request
/// admission; GNN work stays on the tenants' ConcurrentServer workers.
///
/// Request path (all on the IO thread): a complete frame is compacted to
/// the front of the connection's read buffer (so the zero-copy parse sees
/// aligned arrays), parsed, CSR-validated, admitted through the tenant's
/// token bucket, materialized into a pooled RequestContext, and submitted
/// with a Submit completion callback — the IO thread never
/// blocks on a serve. The worker-side callback encodes the response frame
/// into the context and hands it back through a completion queue + wake
/// pipe; the IO thread splices it onto the connection's write buffer.
/// Contexts are recycled through a free list and the callback captures one
/// pointer, so steady-state serving of a stable batch shape makes zero
/// tensor-heap allocations and no heap allocation in Submit per request.
/// The known remainders are the autograd tape nodes inside Predict and the
/// completion list, which DrainCompletions swaps out empty, so it regrows
/// once per drain.
///
/// Overload never hangs a socket: a full tenant queue or an exhausted
/// quota is answered synchronously with a protocol-level REJECTED frame
/// (reason QUEUE_FULL / QUOTA_EXCEEDED) on the same connection. Only
/// unparseable framing (bad magic/version, oversized body) closes the
/// connection — after a corrupt length prefix the stream cannot be
/// re-synchronized.
///
/// Responses carry the request_id the client chose and are written in
/// completion order, not submission order — pipelining clients match
/// replies by id.
///
/// Lifetime: the registry must outlive the server. Stop() (implied by
/// destruction) stops accepting, waits for in-flight requests to complete,
/// flushes pending responses, then closes every connection.
///
/// Observability (`mcond.net.*`): `connections` / `requests` / `rejected` /
/// `invalid` / `frame_errors` / `bytes_rx` / `bytes_tx` counters and the
/// `connections_active` gauge, plus the per-tenant
/// `mcond.net.tenant.<name>.*` instruments owned by the registry.
class NetServer {
 public:
  NetServer(ModelRegistry& registry, const NetServerOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the IO thread. Internal error with the
  /// errno text if the address cannot be bound.
  Status Start();

  /// Idempotent; see the class comment for drain semantics.
  void Stop();

  /// The bound port; valid after a successful Start().
  int port() const { return port_; }

 private:
  struct Connection;
  struct RequestContext;

  void IoLoop();
  void AcceptConnections();
  /// False when the connection died and was closed.
  bool HandleReadable(Connection* conn);
  /// Processes every complete frame in the read buffer, then moves the
  /// unconsumed tail to its front.
  /// False → protocol violation, connection closed.
  bool ProcessFrames(Connection* conn);
  void HandleRequestFrame(Connection* conn, const FrameHeader& header,
                          const uint8_t* body);
  /// Appends an error/reject response frame to the connection.
  void ReplyError(Connection* conn, uint64_t request_id, WireStatus status,
                  RejectReason reason, std::string_view message);
  /// Writes as much buffered output as the socket accepts; false when the
  /// connection died.
  bool FlushWrites(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void DrainCompletions();
  void Wake();

  RequestContext* AcquireContext();
  void ReleaseContext(RequestContext* ctx);

  ModelRegistry& registry_;
  NetServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // [0] read end polled, [1] written to wake
  int port_ = 0;
  std::thread io_thread_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  // IO-thread state (touched only by the IO thread once Start returns).
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<RequestContext>> contexts_;
  std::vector<RequestContext*> free_contexts_;
  int64_t inflight_ = 0;

  // Worker → IO thread handoff.
  std::mutex completion_mu_;
  std::vector<RequestContext*> completed_;
  // Callbacks between publishing a context and returning from Wake().
  std::atomic<int> waking_{0};

  obs::Counter& connections_;
  obs::Counter& requests_;
  obs::Counter& rejected_;
  obs::Counter& invalid_;
  obs::Counter& frame_errors_;
  obs::Counter& bytes_rx_;
  obs::Counter& bytes_tx_;
  obs::Gauge& connections_active_;
};

}  // namespace net
}  // namespace mcond

#endif  // MCOND_NET_NET_SERVER_H_
