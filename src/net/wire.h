#ifndef MCOND_NET_WIRE_H_
#define MCOND_NET_WIRE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "graph/inductive.h"

/// The mcond wire protocol: compact length-prefixed binary frames carrying
/// inductive serve requests (tenant + HeldOutBatch) and logits responses.
/// Little-endian throughout, no serialization library — every field is a
/// fixed-offset scalar or a contiguous typed array, so a request parses
/// into pointer views with zero per-element work (`ParseRequestBody`) and
/// materializes into the existing `HeldOutBatch`/`ServeRequest` structs
/// with one memcpy per array into reused buffers (`MaterializeBatch`).
///
/// Frame = 16-byte header + body:
///
///   offset  size  field
///   0       u32   magic 0x314E434D ("MCN1")
///   4       u8    version (1)
///   5       u8    type (1 = request, 2 = response)
///   6       u16   flags (bit 0: graph-batch request — inter edges present)
///   8       u64   body_len (bytes that follow)
///
/// Request body (all arrays naturally aligned — the tenant name is padded
/// so the first i64 array lands on an 8-byte boundary):
///
///   0       u64   request_id (echoed verbatim in the response)
///   8       u64   n            batch rows
///   16      u64   feat_dim     feature columns
///   24      u64   links_cols   columns of the n×N' (or n×N) links CSR
///   32      u64   links_nnz
///   40      u64   inter_nnz    0 unless the graph-batch flag is set
///   48      u32   tenant_len   (1..256)
///   52      u8[]  tenant name, zero-padded to an 8-byte boundary
///           i64[] links row_ptr   (n+1 entries)
///           i64[] inter row_ptr   (n+1; only with the graph-batch flag)
///           i32[] links col_idx   (links_nnz)
///           f32[] links values    (links_nnz)
///           i32[] inter col_idx   (inter_nnz; graph-batch only)
///           f32[] inter values    (inter_nnz; graph-batch only)
///           f32[] features        (n × feat_dim, row-major)
///
/// Response body (message padded to a 4-byte boundary so the logits array
/// is aligned):
///
///   0       u64   request_id
///   8       u32   status (WireStatus)
///   12      u32   reject_reason (RejectReason; 0 unless REJECTED)
///   16      u64   n             logit rows (0 on error)
///   24      u64   num_classes   logit columns (0 on error)
///   32      u64   queue_wait_us server-side queue residency
///   40      u64   service_us    server-side service time
///   48      u32   message_len   error text (empty on OK)
///   52      u8[]  message, zero-padded to a 4-byte boundary
///           f32[] logits (n × num_classes; present only when status = OK)
///
/// Labels never cross the wire: serving does not consume them (the paper
/// stresses support-node labels are not used at deployment time).
///
/// Float payloads are transferred bit-verbatim, which is what makes the
/// loopback bit-identity gate possible: logits served over a socket memcmp
/// equal to an in-process ConcurrentServer on the same request stream.

namespace mcond {
namespace net {

inline constexpr uint32_t kWireMagic = 0x314E434DU;  // "MCN1"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr uint16_t kFlagGraphBatch = 1;
inline constexpr uint32_t kMaxTenantBytes = 256;
/// Frame-level sanity cap; NetServerOptions can lower it per deployment.
inline constexpr uint64_t kDefaultMaxBodyBytes = uint64_t{1} << 30;
/// Dimension caps (rows, feature columns): generous for any real batch,
/// small enough that every byte-size product fits comfortably in 64 bits.
inline constexpr int64_t kMaxDim = int64_t{1} << 22;

enum class FrameType : uint8_t { kRequest = 1, kResponse = 2 };

/// Protocol-level reply status. REJECTED is the load-shedding answer: the
/// server is healthy but declined this request (full queue or exhausted
/// tenant quota) — clients retry with backoff instead of reconnecting.
enum class WireStatus : uint32_t {
  kOk = 0,
  kRejected = 1,
  kInvalidArgument = 2,
  kNotFound = 3,  // unknown tenant
  kInternal = 4,
};

enum class RejectReason : uint32_t {
  kNone = 0,
  kQueueFull = 1,
  kQuotaExceeded = 2,
  kShuttingDown = 3,
};

const char* WireStatusName(WireStatus s);

struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kRequest;
  uint16_t flags = 0;
  uint64_t body_len = 0;
};

/// Zero-copy view of a parsed request body: every pointer aliases the
/// frame buffer, which must stay alive and unmodified while the view is
/// used. Array pointers are naturally aligned provided the body itself was
/// 8-byte aligned (ParseRequestBody enforces this — the server compacts
/// each frame to the front of its read buffer before parsing).
struct RequestView {
  uint64_t request_id = 0;
  bool graph_batch = false;
  std::string_view tenant;
  int64_t n = 0;
  int64_t feat_dim = 0;
  int64_t links_cols = 0;
  int64_t links_nnz = 0;
  int64_t inter_nnz = 0;
  const int64_t* links_row_ptr = nullptr;
  const int64_t* inter_row_ptr = nullptr;  // null in node-batch requests
  const int32_t* links_col_idx = nullptr;
  const float* links_values = nullptr;
  const int32_t* inter_col_idx = nullptr;
  const float* inter_values = nullptr;
  const float* features = nullptr;
};

/// View of a parsed response body; same aliasing rules as RequestView.
struct ResponseView {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kInternal;
  RejectReason reason = RejectReason::kNone;
  int64_t n = 0;
  int64_t num_classes = 0;
  uint64_t queue_wait_us = 0;
  uint64_t service_us = 0;
  std::string_view message;
  const float* logits = nullptr;  // null unless status == kOk
};

/// Parses and sanity-checks a frame header (magic, version, known type,
/// body_len <= max_body_bytes). `len` must be >= kFrameHeaderBytes. A bad
/// header means the byte stream itself cannot be trusted — the caller
/// closes the connection rather than attempting a reply.
Status ParseFrameHeader(const uint8_t* data, size_t len,
                        uint64_t max_body_bytes, FrameHeader* out);

/// Zero-copy parse of a request body: validates every count against
/// body_len (the computed layout must consume the body exactly) and fills
/// pointer views into `body`. O(1) — CSR invariants are NOT checked here;
/// run ValidateRequestCsr before materializing.
Status ParseRequestBody(const uint8_t* body, uint64_t body_len,
                        uint16_t flags, RequestView* out);

/// O(nnz) CSR invariant validation for untrusted network input: row_ptr
/// monotone from 0 to nnz, column indices in range and strictly ascending
/// within each row, all floats present. CsrMatrix::FromParts would
/// CHECK-abort on violations; a malformed frame must surface as a Status
/// (an INVALID_ARGUMENT reply) instead of killing the serving process.
Status ValidateRequestCsr(const RequestView& view);

/// Copies a validated view into `batch`, reusing the capacity of the
/// batch's existing tensors/CSR buffers (steady-state serving of a stable
/// batch shape performs no allocation). The view must have passed
/// ValidateRequestCsr. Node-batch views get an empty n×n inter matrix.
void MaterializeBatch(const RequestView& view, HeldOutBatch* batch);

/// Appends one complete request frame (header + body) to `out`.
void EncodeRequestFrame(uint64_t request_id, std::string_view tenant,
                        const HeldOutBatch& batch, bool graph_batch,
                        std::vector<uint8_t>* out);

/// Appends one complete response frame. `logits` must be non-null exactly
/// when status == kOk; timing fields are zero for synchronous rejections.
void EncodeResponseFrame(uint64_t request_id, WireStatus status,
                         RejectReason reason, uint64_t queue_wait_us,
                         uint64_t service_us, std::string_view message,
                         const Tensor* logits, std::vector<uint8_t>* out);

/// Parses a response body into a view (the client side of the protocol).
Status ParseResponseBody(const uint8_t* body, uint64_t body_len,
                         ResponseView* out);

}  // namespace net
}  // namespace mcond

#endif  // MCOND_NET_WIRE_H_
