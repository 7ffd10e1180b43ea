#include "net/wire.h"

#include <bit>
#include <cstring>

#include "core/csr_matrix.h"
#include "core/logging.h"

namespace mcond {
namespace net {

// The codec below reads and writes integers with memcpy and no byte
// swapping, which is only the little-endian wire format on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the mcond wire codec requires a little-endian host");

namespace {

constexpr size_t kRequestFixedBytes = 52;   // scalars before the tenant name
constexpr size_t kResponseFixedBytes = 52;  // scalars before the message
// Column indices travel as i32, so column counts and nnz are capped at
// what an i32 can address.
constexpr int64_t kMaxIndex = int64_t{1} << 31;

template <typename T>
T LoadLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void AppendLE(std::vector<uint8_t>* out, T v) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

void AppendBytes(std::vector<uint8_t>* out, const void* p, size_t bytes) {
  const size_t at = out->size();
  out->resize(at + bytes);
  if (bytes > 0) std::memcpy(out->data() + at, p, bytes);
}

void AppendZeros(std::vector<uint8_t>* out, size_t bytes) {
  out->resize(out->size() + bytes, uint8_t{0});
}

size_t PadTo(size_t offset, size_t align) {
  return (align - offset % align) % align;
}

void AppendFrameHeader(std::vector<uint8_t>* out, FrameType type,
                       uint16_t flags, uint64_t body_len) {
  AppendLE<uint32_t>(out, kWireMagic);
  AppendLE<uint8_t>(out, kWireVersion);
  AppendLE<uint8_t>(out, static_cast<uint8_t>(type));
  AppendLE<uint16_t>(out, flags);
  AppendLE<uint64_t>(out, body_len);
}

}  // namespace

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kRejected:
      return "REJECTED";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

Status ParseFrameHeader(const uint8_t* data, size_t len,
                        uint64_t max_body_bytes, FrameHeader* out) {
  MCOND_CHECK(data != nullptr && out != nullptr);
  if (len < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header: short buffer");
  }
  if (LoadLE<uint32_t>(data) != kWireMagic) {
    return Status::InvalidArgument("frame header: bad magic");
  }
  out->version = LoadLE<uint8_t>(data + 4);
  if (out->version != kWireVersion) {
    return Status::InvalidArgument("frame header: unsupported version " +
                                   std::to_string(out->version));
  }
  const uint8_t type = LoadLE<uint8_t>(data + 5);
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    return Status::InvalidArgument("frame header: unknown frame type " +
                                   std::to_string(type));
  }
  out->type = static_cast<FrameType>(type);
  out->flags = LoadLE<uint16_t>(data + 6);
  out->body_len = LoadLE<uint64_t>(data + 8);
  if (out->body_len > max_body_bytes) {
    return Status::InvalidArgument(
        "frame header: body of " + std::to_string(out->body_len) +
        " bytes exceeds the " + std::to_string(max_body_bytes) + " limit");
  }
  return Status::Ok();
}

Status ParseRequestBody(const uint8_t* body, uint64_t body_len,
                        uint16_t flags, RequestView* out) {
  MCOND_CHECK(body != nullptr && out != nullptr);
  if (reinterpret_cast<uintptr_t>(body) % 8 != 0) {
    return Status::Internal("request body is not 8-byte aligned");
  }
  if (body_len < kRequestFixedBytes) {
    return Status::InvalidArgument("request body: short buffer");
  }
  RequestView v;
  v.graph_batch = (flags & kFlagGraphBatch) != 0;
  v.request_id = LoadLE<uint64_t>(body + 0);
  const uint64_t n = LoadLE<uint64_t>(body + 8);
  const uint64_t feat_dim = LoadLE<uint64_t>(body + 16);
  const uint64_t links_cols = LoadLE<uint64_t>(body + 24);
  const uint64_t links_nnz = LoadLE<uint64_t>(body + 32);
  const uint64_t inter_nnz = LoadLE<uint64_t>(body + 40);
  const uint32_t tenant_len = LoadLE<uint32_t>(body + 48);
  if (n == 0 || n > static_cast<uint64_t>(kMaxDim)) {
    return Status::InvalidArgument("request body: batch rows out of range");
  }
  if (feat_dim == 0 || feat_dim > static_cast<uint64_t>(kMaxDim)) {
    return Status::InvalidArgument("request body: feature dim out of range");
  }
  if (links_cols == 0 || links_cols > static_cast<uint64_t>(kMaxIndex)) {
    return Status::InvalidArgument("request body: links cols out of range");
  }
  if (links_nnz > static_cast<uint64_t>(kMaxIndex) ||
      inter_nnz > static_cast<uint64_t>(kMaxIndex)) {
    return Status::InvalidArgument("request body: nnz out of range");
  }
  if (!v.graph_batch && inter_nnz != 0) {
    return Status::InvalidArgument(
        "request body: inter edges in a node-batch request");
  }
  if (tenant_len == 0 || tenant_len > kMaxTenantBytes) {
    return Status::InvalidArgument("request body: tenant length out of range");
  }
  v.n = static_cast<int64_t>(n);
  v.feat_dim = static_cast<int64_t>(feat_dim);
  v.links_cols = static_cast<int64_t>(links_cols);
  v.links_nnz = static_cast<int64_t>(links_nnz);
  v.inter_nnz = static_cast<int64_t>(inter_nnz);

  // Every term below is bounded by kMaxDim²·4 or kMaxIndex·8, so the u64
  // sum cannot wrap.
  uint64_t offset = kRequestFixedBytes + tenant_len;
  offset += PadTo(offset, 8);
  const uint64_t tenant_end = offset;
  uint64_t total = tenant_end;
  total += (n + 1) * 8;                          // links row_ptr
  if (v.graph_batch) total += (n + 1) * 8;       // inter row_ptr
  total += links_nnz * 8;                        // links col_idx + values
  if (v.graph_batch) total += inter_nnz * 8;     // inter col_idx + values
  total += n * feat_dim * 4;                     // features
  if (total != body_len) {
    return Status::InvalidArgument(
        "request body: length " + std::to_string(body_len) +
        " does not match the declared layout (" + std::to_string(total) +
        ")");
  }

  v.tenant = std::string_view(reinterpret_cast<const char*>(body) +
                                  kRequestFixedBytes,
                              tenant_len);
  const uint8_t* p = body + tenant_end;
  v.links_row_ptr = reinterpret_cast<const int64_t*>(p);
  p += (n + 1) * 8;
  if (v.graph_batch) {
    v.inter_row_ptr = reinterpret_cast<const int64_t*>(p);
    p += (n + 1) * 8;
  }
  v.links_col_idx = reinterpret_cast<const int32_t*>(p);
  p += links_nnz * 4;
  v.links_values = reinterpret_cast<const float*>(p);
  p += links_nnz * 4;
  if (v.graph_batch) {
    v.inter_col_idx = reinterpret_cast<const int32_t*>(p);
    p += inter_nnz * 4;
    v.inter_values = reinterpret_cast<const float*>(p);
    p += inter_nnz * 4;
  }
  v.features = reinterpret_cast<const float*>(p);
  *out = v;
  return Status::Ok();
}

namespace {

Status ValidateCsrArrays(const char* what, int64_t rows, int64_t cols,
                         int64_t nnz, const int64_t* row_ptr,
                         const int32_t* col_idx) {
  if (row_ptr[0] != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": row_ptr does not start at 0");
  }
  for (int64_t r = 0; r < rows; ++r) {
    if (row_ptr[r + 1] < row_ptr[r]) {
      return Status::InvalidArgument(std::string(what) +
                                     ": row_ptr is not non-decreasing");
    }
  }
  if (row_ptr[rows] != nnz) {
    return Status::InvalidArgument(std::string(what) +
                                   ": row_ptr does not end at nnz");
  }
  for (int64_t r = 0; r < rows; ++r) {
    int64_t prev = -1;
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int32_t c = col_idx[k];
      if (c < 0 || c >= cols) {
        return Status::InvalidArgument(std::string(what) +
                                       ": column index out of range");
      }
      if (c <= prev) {
        return Status::InvalidArgument(
            std::string(what) + ": column indices not strictly ascending");
      }
      prev = c;
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateRequestCsr(const RequestView& view) {
  Status s = ValidateCsrArrays("links", view.n, view.links_cols,
                               view.links_nnz, view.links_row_ptr,
                               view.links_col_idx);
  if (!s.ok()) return s;
  if (view.graph_batch) {
    return ValidateCsrArrays("inter", view.n, view.n, view.inter_nnz,
                             view.inter_row_ptr, view.inter_col_idx);
  }
  return Status::Ok();
}

void MaterializeBatch(const RequestView& view, HeldOutBatch* batch) {
  MCOND_CHECK(batch != nullptr);
  const int64_t n = view.n;
  // Features: reallocate only on shape change, then one memcpy.
  if (batch->features.rows() != n || batch->features.cols() != view.feat_dim) {
    batch->features = Tensor::Uninitialized(n, view.feat_dim);
  }
  std::memcpy(batch->features.data(), view.features,
              static_cast<size_t>(n * view.feat_dim) * sizeof(float));

  // CSR matrices: recycle the previous batch's buffers via TakeParts, so a
  // stable request shape reuses capacity instead of reallocating. The view
  // already passed ValidateRequestCsr, so FromParts skips its own O(nnz)
  // pass.
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  batch->links.TakeParts(&row_ptr, &col_idx, &values);
  row_ptr.resize(static_cast<size_t>(n + 1));
  col_idx.resize(static_cast<size_t>(view.links_nnz));
  values.resize(static_cast<size_t>(view.links_nnz));
  std::memcpy(row_ptr.data(), view.links_row_ptr,
              static_cast<size_t>(n + 1) * sizeof(int64_t));
  if (view.links_nnz > 0) {
    std::memcpy(col_idx.data(), view.links_col_idx,
                static_cast<size_t>(view.links_nnz) * sizeof(int32_t));
    std::memcpy(values.data(), view.links_values,
                static_cast<size_t>(view.links_nnz) * sizeof(float));
  }
  batch->links =
      CsrMatrix::FromParts(n, view.links_cols, std::move(row_ptr),
                           std::move(col_idx), std::move(values),
                           /*validate=*/false);

  batch->inter.TakeParts(&row_ptr, &col_idx, &values);
  if (view.graph_batch) {
    row_ptr.resize(static_cast<size_t>(n + 1));
    col_idx.resize(static_cast<size_t>(view.inter_nnz));
    values.resize(static_cast<size_t>(view.inter_nnz));
    std::memcpy(row_ptr.data(), view.inter_row_ptr,
                static_cast<size_t>(n + 1) * sizeof(int64_t));
    if (view.inter_nnz > 0) {
      std::memcpy(col_idx.data(), view.inter_col_idx,
                  static_cast<size_t>(view.inter_nnz) * sizeof(int32_t));
      std::memcpy(values.data(), view.inter_values,
                  static_cast<size_t>(view.inter_nnz) * sizeof(float));
    }
  } else {
    row_ptr.assign(static_cast<size_t>(n + 1), 0);
    col_idx.clear();
    values.clear();
  }
  batch->inter = CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                      std::move(col_idx), std::move(values),
                                      /*validate=*/false);
  batch->labels.clear();
}

void EncodeRequestFrame(uint64_t request_id, std::string_view tenant,
                        const HeldOutBatch& batch, bool graph_batch,
                        std::vector<uint8_t>* out) {
  MCOND_CHECK(out != nullptr);
  MCOND_CHECK(!tenant.empty() && tenant.size() <= kMaxTenantBytes)
      << "tenant name must be 1.." << kMaxTenantBytes << " bytes";
  const int64_t n = batch.size();
  MCOND_CHECK_GE(n, 1);
  MCOND_CHECK_LE(n, kMaxDim);
  MCOND_CHECK_LE(batch.features.cols(), kMaxDim);
  MCOND_CHECK_LE(batch.links.cols(), kMaxIndex);
  MCOND_CHECK_LE(batch.links.Nnz(), kMaxIndex);
  MCOND_CHECK_LE(batch.inter.Nnz(), kMaxIndex);
  MCOND_CHECK_EQ(batch.links.rows(), n);
  if (graph_batch) {
    MCOND_CHECK_EQ(batch.inter.rows(), n);
    MCOND_CHECK_EQ(batch.inter.cols(), n);
  }
  const int64_t inter_nnz = graph_batch ? batch.inter.Nnz() : 0;

  uint64_t body_len = kRequestFixedBytes + tenant.size();
  body_len += PadTo(body_len, 8);
  body_len += static_cast<uint64_t>(n + 1) * 8;
  if (graph_batch) body_len += static_cast<uint64_t>(n + 1) * 8;
  body_len += static_cast<uint64_t>(batch.links.Nnz()) * 8;
  if (graph_batch) body_len += static_cast<uint64_t>(inter_nnz) * 8;
  body_len +=
      static_cast<uint64_t>(n) * static_cast<uint64_t>(batch.features.cols()) *
      4;

  out->reserve(out->size() + kFrameHeaderBytes + body_len);
  AppendFrameHeader(out, FrameType::kRequest,
                    graph_batch ? kFlagGraphBatch : uint16_t{0}, body_len);
  AppendLE<uint64_t>(out, request_id);
  AppendLE<uint64_t>(out, static_cast<uint64_t>(n));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(batch.features.cols()));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(batch.links.cols()));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(batch.links.Nnz()));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(inter_nnz));
  AppendLE<uint32_t>(out, static_cast<uint32_t>(tenant.size()));
  AppendBytes(out, tenant.data(), tenant.size());
  AppendZeros(out, PadTo(kRequestFixedBytes + tenant.size(), 8));
  AppendBytes(out, batch.links.row_ptr().data(),
              static_cast<size_t>(n + 1) * sizeof(int64_t));
  if (graph_batch) {
    AppendBytes(out, batch.inter.row_ptr().data(),
                static_cast<size_t>(n + 1) * sizeof(int64_t));
  }
  AppendBytes(out, batch.links.col_idx().data(),
              static_cast<size_t>(batch.links.Nnz()) * sizeof(int32_t));
  AppendBytes(out, batch.links.values().data(),
              static_cast<size_t>(batch.links.Nnz()) * sizeof(float));
  if (graph_batch) {
    AppendBytes(out, batch.inter.col_idx().data(),
                static_cast<size_t>(inter_nnz) * sizeof(int32_t));
    AppendBytes(out, batch.inter.values().data(),
                static_cast<size_t>(inter_nnz) * sizeof(float));
  }
  AppendBytes(out, batch.features.data(),
              static_cast<size_t>(batch.features.size()) * sizeof(float));
}

void EncodeResponseFrame(uint64_t request_id, WireStatus status,
                         RejectReason reason, uint64_t queue_wait_us,
                         uint64_t service_us, std::string_view message,
                         const Tensor* logits, std::vector<uint8_t>* out) {
  MCOND_CHECK(out != nullptr);
  MCOND_CHECK_EQ(status == WireStatus::kOk, logits != nullptr)
      << "logits must be present exactly on OK responses";
  const int64_t n = logits != nullptr ? logits->rows() : 0;
  const int64_t num_classes = logits != nullptr ? logits->cols() : 0;

  uint64_t body_len = kResponseFixedBytes + message.size();
  body_len += PadTo(body_len, 4);
  body_len += static_cast<uint64_t>(n) * static_cast<uint64_t>(num_classes) *
              4;

  out->reserve(out->size() + kFrameHeaderBytes + body_len);
  AppendFrameHeader(out, FrameType::kResponse, 0, body_len);
  AppendLE<uint64_t>(out, request_id);
  AppendLE<uint32_t>(out, static_cast<uint32_t>(status));
  AppendLE<uint32_t>(out, static_cast<uint32_t>(reason));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(n));
  AppendLE<uint64_t>(out, static_cast<uint64_t>(num_classes));
  AppendLE<uint64_t>(out, queue_wait_us);
  AppendLE<uint64_t>(out, service_us);
  AppendLE<uint32_t>(out, static_cast<uint32_t>(message.size()));
  AppendBytes(out, message.data(), message.size());
  AppendZeros(out, PadTo(kResponseFixedBytes + message.size(), 4));
  if (logits != nullptr) {
    AppendBytes(out, logits->data(),
                static_cast<size_t>(logits->size()) * sizeof(float));
  }
}

Status ParseResponseBody(const uint8_t* body, uint64_t body_len,
                         ResponseView* out) {
  MCOND_CHECK(body != nullptr && out != nullptr);
  if (reinterpret_cast<uintptr_t>(body) % 4 != 0) {
    return Status::Internal("response body is not 4-byte aligned");
  }
  if (body_len < kResponseFixedBytes) {
    return Status::InvalidArgument("response body: short buffer");
  }
  ResponseView v;
  v.request_id = LoadLE<uint64_t>(body + 0);
  const uint32_t status = LoadLE<uint32_t>(body + 8);
  const uint32_t reason = LoadLE<uint32_t>(body + 12);
  if (status > static_cast<uint32_t>(WireStatus::kInternal)) {
    return Status::InvalidArgument("response body: unknown status code");
  }
  if (reason > static_cast<uint32_t>(RejectReason::kShuttingDown)) {
    return Status::InvalidArgument("response body: unknown reject reason");
  }
  v.status = static_cast<WireStatus>(status);
  v.reason = static_cast<RejectReason>(reason);
  const uint64_t n = LoadLE<uint64_t>(body + 16);
  const uint64_t num_classes = LoadLE<uint64_t>(body + 24);
  v.queue_wait_us = LoadLE<uint64_t>(body + 32);
  v.service_us = LoadLE<uint64_t>(body + 40);
  const uint32_t message_len = LoadLE<uint32_t>(body + 48);
  if (n > static_cast<uint64_t>(kMaxDim) ||
      num_classes > static_cast<uint64_t>(kMaxDim)) {
    return Status::InvalidArgument("response body: logit shape out of range");
  }
  if (message_len > body_len - kResponseFixedBytes) {
    return Status::InvalidArgument("response body: message overruns body");
  }
  uint64_t offset = kResponseFixedBytes + message_len;
  offset += PadTo(offset, 4);
  const uint64_t logit_bytes =
      v.status == WireStatus::kOk ? n * num_classes * 4 : 0;
  if (offset + logit_bytes != body_len) {
    return Status::InvalidArgument(
        "response body: length does not match the declared layout");
  }
  v.n = static_cast<int64_t>(n);
  v.num_classes = static_cast<int64_t>(num_classes);
  v.message = std::string_view(
      reinterpret_cast<const char*>(body) + kResponseFixedBytes, message_len);
  if (v.status == WireStatus::kOk && logit_bytes > 0) {
    v.logits = reinterpret_cast<const float*>(body + offset);
  }
  *out = v;
  return Status::Ok();
}

}  // namespace net
}  // namespace mcond
