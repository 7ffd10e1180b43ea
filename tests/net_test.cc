// Tests for the network front-end (src/net/): wire-protocol encode/parse
// round trips and malformed-frame rejection, the deterministic TokenBucket,
// and end-to-end loopback serving — logits over the socket bit-identical to
// in-process ConcurrentServer calls on the same tenants (a graph batch with
// a zero-degree row among them), queue-full and
// quota-exceeded surfacing as protocol-level REJECTED replies (never a
// dropped connection), unknown tenants as NOT_FOUND, hostile framing
// closing the connection, and frames coalesced into one read or split
// across reads (with unaligned body lengths) each getting its reply. Also
// built under the tsan preset, which checks the IO-thread / worker-callback
// handoff.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "net/model_registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "nn/sgc.h"

namespace mcond {
namespace net {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << "logits differ at the bit level";
}

/// A small hand-built graph batch: 3 held-out nodes against 4 observed
/// columns, with inter edges among the 3.
HeldOutBatch MakeBatch() {
  HeldOutBatch batch;
  batch.features = Tensor::FromVector(3, 2, {0.5f, -1.0f, 2.25f, 0.0f,
                                             -3.5f, 1.0f});
  batch.links = CsrMatrix::FromParts(3, 4, {0, 2, 3, 5}, {0, 2, 1, 0, 3},
                                     {1.0f, 0.5f, 2.0f, 0.25f, 1.5f});
  batch.inter = CsrMatrix::FromParts(3, 3, {0, 1, 2, 2}, {1, 0},
                                     {1.0f, 1.0f});
  batch.labels = {0, 1, 0};  // must NOT cross the wire
  return batch;
}

/// Extracts the body (after the 16-byte header) into a fresh vector whose
/// heap storage is malloc-aligned, satisfying ParseRequestBody's 8-byte
/// alignment contract the same way the server's buffer compaction does.
std::vector<uint8_t> BodyOf(const std::vector<uint8_t>& frame) {
  return std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes,
                              frame.end());
}

/// A raw client socket connected to a loopback server; -1 on failure.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const uint8_t* data, size_t len) {
  for (size_t sent = 0; sent < len;) {
    const ssize_t w = ::send(fd, data + sent, len - sent, 0);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool RecvAll(int fd, uint8_t* data, size_t len) {
  for (size_t got = 0; got < len;) {
    const ssize_t r = ::recv(fd, data + got, len - got, 0);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

/// Reads one response frame and leaves its body in `body` (vector storage,
/// so aligned for ParseResponseBody).
bool RecvResponse(int fd, std::vector<uint8_t>* body) {
  uint8_t header_bytes[kFrameHeaderBytes];
  FrameHeader header;
  if (!RecvAll(fd, header_bytes, sizeof(header_bytes)) ||
      !ParseFrameHeader(header_bytes, sizeof(header_bytes),
                        kDefaultMaxBodyBytes, &header)
           .ok() ||
      header.type != FrameType::kResponse) {
    return false;
  }
  body->resize(header.body_len);
  return RecvAll(fd, body->data(), body->size());
}

TEST(WireTest, FrameHeaderRoundTrip) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(7, "alpha", MakeBatch(), /*graph_batch=*/true, &frame);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);

  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(frame.data(), frame.size(),
                               kDefaultMaxBodyBytes, &header)
                  .ok());
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, FrameType::kRequest);
  EXPECT_EQ(header.flags & kFlagGraphBatch, kFlagGraphBatch);
  EXPECT_EQ(header.body_len, frame.size() - kFrameHeaderBytes);
}

TEST(WireTest, FrameHeaderRejectsHostileInput) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(1, "t", MakeBatch(), true, &frame);
  FrameHeader header;

  std::vector<uint8_t> bad = frame;  // wrong magic
  bad[0] ^= 0xFF;
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), kDefaultMaxBodyBytes,
                                &header)
                   .ok());

  bad = frame;  // unknown version
  bad[4] = 9;
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), kDefaultMaxBodyBytes,
                                &header)
                   .ok());

  bad = frame;  // unknown frame type
  bad[5] = 3;
  EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size(), kDefaultMaxBodyBytes,
                                &header)
                   .ok());

  // A hostile length prefix beyond the cap must fail before any allocation.
  EXPECT_FALSE(ParseFrameHeader(frame.data(), frame.size(),
                                /*max_body_bytes=*/8, &header)
                   .ok());
}

TEST(WireTest, RequestRoundTripGraphBatch) {
  const HeldOutBatch batch = MakeBatch();
  std::vector<uint8_t> frame;
  EncodeRequestFrame(42, "alpha", batch, /*graph_batch=*/true, &frame);
  const std::vector<uint8_t> body = BodyOf(frame);

  RequestView view;
  ASSERT_TRUE(ParseRequestBody(body.data(), body.size(), kFlagGraphBatch,
                               &view)
                  .ok());
  EXPECT_EQ(view.request_id, 42u);
  EXPECT_TRUE(view.graph_batch);
  EXPECT_EQ(view.tenant, "alpha");
  EXPECT_EQ(view.n, 3);
  EXPECT_EQ(view.feat_dim, 2);
  EXPECT_EQ(view.links_cols, 4);
  EXPECT_EQ(view.links_nnz, 5);
  EXPECT_EQ(view.inter_nnz, 2);
  ASSERT_TRUE(ValidateRequestCsr(view).ok());

  HeldOutBatch decoded;
  MaterializeBatch(view, &decoded);
  ExpectBitEqual(batch.features, decoded.features);
  EXPECT_EQ(decoded.links.cols(), batch.links.cols());
  EXPECT_EQ(std::memcmp(decoded.links.values().data(),
                        batch.links.values().data(), 5 * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(decoded.inter.values().data(),
                        batch.inter.values().data(), 2 * sizeof(float)),
            0);
  EXPECT_TRUE(decoded.labels.empty()) << "labels must not cross the wire";
}

TEST(WireTest, RequestRoundTripNodeBatch) {
  const HeldOutBatch batch = MakeBatch();
  std::vector<uint8_t> frame;
  EncodeRequestFrame(9, "beta", batch, /*graph_batch=*/false, &frame);
  const std::vector<uint8_t> body = BodyOf(frame);

  RequestView view;
  ASSERT_TRUE(ParseRequestBody(body.data(), body.size(), /*flags=*/0, &view)
                  .ok());
  EXPECT_FALSE(view.graph_batch);
  EXPECT_EQ(view.inter_nnz, 0);
  EXPECT_EQ(view.inter_row_ptr, nullptr);
  ASSERT_TRUE(ValidateRequestCsr(view).ok());

  HeldOutBatch decoded;
  MaterializeBatch(view, &decoded);
  EXPECT_EQ(decoded.inter.rows(), 3);
  EXPECT_EQ(decoded.inter.Nnz(), 0) << "node batch gets an empty inter";
  ExpectBitEqual(batch.features, decoded.features);
}

TEST(WireTest, RequestBodyRejectsMalformed) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(1, "alpha", MakeBatch(), true, &frame);
  const std::vector<uint8_t> body = BodyOf(frame);
  RequestView view;

  // Truncated: layout must consume the body exactly.
  EXPECT_FALSE(ParseRequestBody(body.data(), body.size() - 1, kFlagGraphBatch,
                                &view)
                   .ok());
  // Trailing garbage is equally a length mismatch.
  std::vector<uint8_t> padded = body;
  padded.resize(padded.size() + 8, 0);
  EXPECT_FALSE(ParseRequestBody(padded.data(), padded.size(), kFlagGraphBatch,
                                &view)
                   .ok());
  // inter_nnz != 0 without the graph-batch flag.
  EXPECT_FALSE(ParseRequestBody(body.data(), body.size(), /*flags=*/0, &view)
                   .ok());
  // Misaligned body pointer violates the zero-copy contract.
  EXPECT_FALSE(ParseRequestBody(body.data() + 1, body.size() - 1,
                                kFlagGraphBatch, &view)
                   .ok());

  // Zero-length tenant.
  std::vector<uint8_t> bad = body;
  std::memset(&bad[48], 0, sizeof(uint32_t));
  EXPECT_FALSE(ParseRequestBody(bad.data(), bad.size(), kFlagGraphBatch,
                                &view)
                   .ok());
  // n = 0.
  bad = body;
  std::memset(&bad[8], 0, sizeof(uint64_t));
  EXPECT_FALSE(ParseRequestBody(bad.data(), bad.size(), kFlagGraphBatch,
                                &view)
                   .ok());
}

TEST(WireTest, ValidateCatchesCorruptCsr) {
  std::vector<uint8_t> frame;
  EncodeRequestFrame(1, "alpha", MakeBatch(), true, &frame);
  std::vector<uint8_t> body = BodyOf(frame);
  RequestView view;
  ASSERT_TRUE(ParseRequestBody(body.data(), body.size(), kFlagGraphBatch,
                               &view)
                  .ok());

  // Column index out of range (the view aliases `body`, which we own).
  auto* cols = const_cast<int32_t*>(view.links_col_idx);
  const int32_t saved_col = cols[0];
  cols[0] = 1000;
  EXPECT_FALSE(ValidateRequestCsr(view).ok());
  cols[0] = saved_col;
  ASSERT_TRUE(ValidateRequestCsr(view).ok());

  // Non-monotone row_ptr.
  auto* rp = const_cast<int64_t*>(view.links_row_ptr);
  const int64_t saved_rp = rp[1];
  rp[1] = 5;
  rp[2] = 3;
  EXPECT_FALSE(ValidateRequestCsr(view).ok());
  rp[1] = saved_rp;
  rp[2] = 3;

  // row_ptr not ending at nnz.
  auto* last = const_cast<int64_t*>(view.links_row_ptr) + view.n;
  *last = view.links_nnz - 1;
  EXPECT_FALSE(ValidateRequestCsr(view).ok());
}

TEST(WireTest, ResponseRoundTrip) {
  const Tensor logits = Tensor::FromVector(2, 3, {1.0f, -2.0f, 3.0f,
                                                  -0.5f, 0.0f, 9.75f});
  std::vector<uint8_t> frame;
  EncodeResponseFrame(77, WireStatus::kOk, RejectReason::kNone,
                      /*queue_wait_us=*/11, /*service_us=*/22, "", &logits,
                      &frame);
  std::vector<uint8_t> body = BodyOf(frame);

  ResponseView view;
  ASSERT_TRUE(ParseResponseBody(body.data(), body.size(), &view).ok());
  EXPECT_EQ(view.request_id, 77u);
  EXPECT_EQ(view.status, WireStatus::kOk);
  EXPECT_EQ(view.n, 2);
  EXPECT_EQ(view.num_classes, 3);
  EXPECT_EQ(view.queue_wait_us, 11u);
  EXPECT_EQ(view.service_us, 22u);
  ASSERT_NE(view.logits, nullptr);
  EXPECT_EQ(std::memcmp(view.logits, logits.data(), 6 * sizeof(float)), 0);
}

TEST(WireTest, ResponseRejectedCarriesReasonNotLogits) {
  std::vector<uint8_t> frame;
  EncodeResponseFrame(5, WireStatus::kRejected, RejectReason::kQueueFull, 0,
                      0, "queue full", /*logits=*/nullptr, &frame);
  std::vector<uint8_t> body = BodyOf(frame);

  ResponseView view;
  ASSERT_TRUE(ParseResponseBody(body.data(), body.size(), &view).ok());
  EXPECT_EQ(view.status, WireStatus::kRejected);
  EXPECT_EQ(view.reason, RejectReason::kQueueFull);
  EXPECT_EQ(view.message, "queue full");
  EXPECT_EQ(view.logits, nullptr);
  EXPECT_EQ(view.n, 0);

  // Tampered status enum value must not parse.
  std::memset(&body[8], 0x7F, 1);
  EXPECT_FALSE(ParseResponseBody(body.data(), body.size(), &view).ok());
}

TEST(TokenBucketTest, DeterministicAdmitSequence) {
  TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/2.0);
  // Starts full: burst admits, then dry.
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  // 2 tokens/s: half a second accrues exactly one.
  EXPECT_TRUE(bucket.TryAcquire(500000));
  EXPECT_FALSE(bucket.TryAcquire(500000));
  // A long idle stretch caps at the burst, not the elapsed time.
  EXPECT_TRUE(bucket.TryAcquire(10500000));
  EXPECT_TRUE(bucket.TryAcquire(10500000));
  EXPECT_FALSE(bucket.TryAcquire(10500000));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

class NetServerTest : public ::testing::Test {
 protected:
  static constexpr const char* kTenants[2] = {"alpha", "beta"};

  static ModelRegistry::ModelFactory UntrainedSgcFactory() {
    return [](const CondensedGraph& cg)
        -> StatusOr<std::unique_ptr<GnnModel>> {
      GnnConfig gc;
      Rng rng(18);
      return std::unique_ptr<GnnModel>(std::make_unique<Sgc>(
          cg.graph.FeatureDim(), cg.graph.num_classes(), gc, rng));
    };
  }

  /// Registry with two random-coreset tenants over tiny-sim.
  static std::unique_ptr<ModelRegistry> MakeRegistry(
      const InductiveDataset& data, const TenantConfig& cfg) {
    auto registry = std::make_unique<ModelRegistry>(UntrainedSgcFactory());
    uint64_t seed = 42;
    for (const char* name : kTenants) {
      Rng rng(seed++);
      const std::vector<int64_t> selected =
          SelectCoreset(CoresetMethod::kRandom, data.train_graph,
                        data.train_graph.features(), /*num_select=*/24, rng);
      const Status st = registry->AddTenant(
          name, BuildCoresetGraph(data.train_graph, selected), cfg);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    return registry;
  }

  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 41));
    batches_ = new std::vector<HeldOutBatch>(
        SplitIntoBatches(data_->test, /*batch_size=*/8));
  }
  static void TearDownTestSuite() {
    delete batches_;
    batches_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static InductiveDataset* data_;
  static std::vector<HeldOutBatch>* batches_;
};

InductiveDataset* NetServerTest::data_ = nullptr;
std::vector<HeldOutBatch>* NetServerTest::batches_ = nullptr;

TEST_F(NetServerTest, LoopbackBitIdenticalToInprocess) {
  for (const int replicas : {1, 8}) {
    TenantConfig cfg;
    cfg.num_replicas = replicas;
    cfg.micro_batch = replicas == 1 ? 1 : 4;
    auto registry = MakeRegistry(*data_, cfg);
    NetServer server(*registry, NetServerOptions());
    ASSERT_TRUE(server.Start().ok());

    for (const char* tenant_name : kTenants) {
      Tenant* tenant = registry->Find(tenant_name);
      ASSERT_NE(tenant, nullptr);
      NetClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      Tensor expected;
      NetResponse resp;
      for (const bool graph_batch : {true, false}) {
        for (const HeldOutBatch& batch : *batches_) {
          ASSERT_TRUE(tenant->server->ServeSync(batch, graph_batch,
                                                &expected)
                          .ok());
          ASSERT_TRUE(client.Call(tenant_name, batch, graph_batch, &resp)
                          .ok());
          ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
          ExpectBitEqual(expected, resp.logits);
          EXPECT_GT(resp.service_us + resp.queue_wait_us, 0u);
        }
      }
    }
    server.Stop();
  }
}

TEST_F(NetServerTest, ZeroDegreeGraphBatchRowBitIdenticalToInprocess) {
  // Batch row 0 loses its links and keeps one inter edge of -1, so its row
  // of Ã sums to 1 - 1 = 0. The wire checks only the CSR structure: the
  // frame gets an OK reply, bit-equal to the in-process serve.
  const HeldOutBatch& src = (*batches_)[0];
  HeldOutBatch batch = src;
  std::vector<Triplet> links;
  for (int64_t r = 1; r < src.links.rows(); ++r) {
    for (int64_t k = src.links.row_ptr()[r]; k < src.links.row_ptr()[r + 1];
         ++k) {
      links.push_back({r, src.links.col_idx()[k], src.links.values()[k]});
    }
  }
  batch.links = CsrMatrix::FromTriplets(src.links.rows(), src.links.cols(),
                                        std::move(links));
  batch.inter = CsrMatrix::FromTriplets(src.size(), src.size(),
                                        {{0, 1, -1.0f}, {1, 0, -1.0f}});

  auto registry = MakeRegistry(*data_, TenantConfig());
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Tensor expected;
  ASSERT_TRUE(registry->Find("alpha")
                  ->server->ServeSync(batch, /*graph_batch=*/true, &expected)
                  .ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse resp;
  ASSERT_TRUE(client.Call("alpha", batch, /*graph_batch=*/true, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
  ExpectBitEqual(expected, resp.logits);
  server.Stop();
}

TEST_F(NetServerTest, UnknownTenantIsNotFoundAndConnectionSurvives) {
  auto registry = MakeRegistry(*data_, TenantConfig());
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse resp;
  ASSERT_TRUE(client.Call("ghost", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kNotFound);
  // Same connection keeps serving known tenants.
  ASSERT_TRUE(client.Call("alpha", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  server.Stop();
}

TEST_F(NetServerTest, CorruptCsrGetsInvalidReplyNotDisconnect) {
  auto registry = MakeRegistry(*data_, TenantConfig());
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // A well-framed request whose CSR payload is garbage, as a buggy client
  // would send it: encode a valid frame, then blow up a column index
  // in-place (the offset comes from parsing our own copy of the body).
  std::vector<uint8_t> frame;
  EncodeRequestFrame(31, "alpha", (*batches_)[0], /*graph_batch=*/true,
                     &frame);
  {
    std::vector<uint8_t> body = BodyOf(frame);
    RequestView view;
    ASSERT_TRUE(ParseRequestBody(body.data(), body.size(), kFlagGraphBatch,
                                 &view)
                    .ok());
    const size_t col0 = kFrameHeaderBytes +
                        static_cast<size_t>(
                            reinterpret_cast<const uint8_t*>(
                                view.links_col_idx) -
                            body.data());
    const int32_t huge = 1 << 30;
    std::memcpy(&frame[col0], &huge, sizeof(huge));
  }

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()));

  // The reply is a well-formed INVALID_ARGUMENT response frame addressed to
  // our request id — not a disconnect.
  std::vector<uint8_t> body;
  ASSERT_TRUE(RecvResponse(fd, &body));
  ResponseView view;
  ASSERT_TRUE(ParseResponseBody(body.data(), body.size(), &view).ok());
  EXPECT_EQ(view.request_id, 31u);
  EXPECT_EQ(view.status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(view.message.empty());
  ::close(fd);

  // The server shrugged it off.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse resp;
  ASSERT_TRUE(client.Call("alpha", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  server.Stop();
}

TEST_F(NetServerTest, CoalescedAndSplitFramesWithUnalignedBodiesAllServed) {
  // With n·d odd a request body is 4 bytes past an 8-byte boundary, so in a
  // burst read at once every other frame starts unaligned. A 15-feature
  // tenant (tiny-sim has 16) and batches of 7 and 3 nodes give exactly that.
  constexpr int64_t kDim = 15;
  const auto truncate = [](const Tensor& x) {
    Tensor out = Tensor::Uninitialized(x.rows(), kDim);
    for (int64_t r = 0; r < x.rows(); ++r) {
      std::memcpy(out.RowData(r), x.RowData(r), kDim * sizeof(float));
    }
    return out;
  };
  Rng rng(42);
  CondensedGraph cg = BuildCoresetGraph(
      data_->train_graph,
      SelectCoreset(CoresetMethod::kRandom, data_->train_graph,
                    data_->train_graph.features(), /*num_select=*/24, rng));
  cg.graph = Graph(cg.graph.adjacency(), truncate(cg.graph.features()),
                   cg.graph.labels(), cg.graph.num_classes());
  ModelRegistry registry(UntrainedSgcFactory());
  ASSERT_TRUE(registry.AddTenant("odd", std::move(cg), TenantConfig()).ok());
  Tenant* tenant = registry.Find("odd");
  ASSERT_NE(tenant, nullptr);
  NetServer server(registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  std::vector<HeldOutBatch> batches = SplitIntoBatches(data_->test, 7);
  std::map<uint64_t, Tensor> expected;
  std::vector<uint8_t> burst;  // every frame but the last
  std::vector<uint8_t> last;
  for (size_t b = 0; b < batches.size(); ++b) {
    HeldOutBatch& batch = batches[b];
    batch.features = truncate(batch.features);
    const bool graph_batch = b % 2 == 0;
    const uint64_t id = 100 + b;
    ASSERT_TRUE(
        tenant->server->ServeSync(batch, graph_batch, &expected[id]).ok());
    std::vector<uint8_t>& out = b + 1 < batches.size() ? burst : last;
    const size_t begin = out.size();
    EncodeRequestFrame(id, "odd", batch, graph_batch, &out);
    ASSERT_EQ((out.size() - begin - kFrameHeaderBytes) % 8, 4u);
  }

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  const int one = 1;
  ASSERT_EQ(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)), 0);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  // The last frame in three pieces, cut mid-header and mid-body, with
  // pauses so the server reads them separately.
  const size_t mid_body =
      kFrameHeaderBytes + (last.size() - kFrameHeaderBytes) / 2;
  const size_t cuts[] = {0, kFrameHeaderBytes / 2, mid_body, last.size()};
  for (int p = 0; p < 3; ++p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(SendAll(fd, last.data() + cuts[p], cuts[p + 1] - cuts[p]));
  }

  std::vector<uint8_t> body;
  for (size_t r = 0; r < batches.size(); ++r) {
    ASSERT_TRUE(RecvResponse(fd, &body));
    ResponseView view;
    ASSERT_TRUE(ParseResponseBody(body.data(), body.size(), &view).ok());
    ASSERT_EQ(view.status, WireStatus::kOk) << view.message;
    const auto it = expected.find(view.request_id);
    ASSERT_NE(it, expected.end()) << "unexpected id " << view.request_id;
    const Tensor& want = it->second;
    ASSERT_EQ(view.n, want.rows());
    ASSERT_EQ(view.num_classes, want.cols());
    EXPECT_EQ(std::memcmp(view.logits, want.data(),
                          static_cast<size_t>(want.size()) * sizeof(float)),
              0)
        << "request " << view.request_id;
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
  ::close(fd);
  server.Stop();
}

TEST_F(NetServerTest, QueueFullIsProtocolRejectedNeverADrop) {
  TenantConfig cfg;
  cfg.num_replicas = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;  // workers idle: the queue fills and stays full
  auto registry = MakeRegistry(*data_, cfg);
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kPipelined = 5;
  for (uint64_t id = 1; id <= kPipelined; ++id) {
    ASSERT_TRUE(client.Send(id, "alpha", (*batches_)[0], true).ok());
  }
  // With capacity 2 and paused workers, exactly 2 are admitted; the other
  // 3 must come back REJECTED/queue-full immediately. Releasing the workers
  // then answers the admitted 2 — every request gets exactly one reply.
  std::map<uint64_t, WireStatus> replies;
  int rejected = 0;
  NetResponse resp;
  for (int i = 0; i < kPipelined - 2; ++i) {
    ASSERT_TRUE(client.Receive(&resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kRejected);
    EXPECT_EQ(resp.reason, RejectReason::kQueueFull);
    ++rejected;
    replies[resp.request_id] = resp.status;
  }
  registry->Find("alpha")->server->Resume();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Receive(&resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
    replies[resp.request_id] = resp.status;
  }
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(replies.size(), static_cast<size_t>(kPipelined))
      << "every pipelined request got exactly one reply";
  server.Stop();
}

TEST_F(NetServerTest, QuotaExceededIsProtocolRejected) {
  TenantConfig cfg;
  cfg.quota_rps = 1e-6;  // ~one token every 11.6 days
  cfg.quota_burst = 1.0;
  auto registry = MakeRegistry(*data_, cfg);
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Tenant* tenant = registry->Find("alpha");
  const int64_t requests_before = tenant->requests->Value();
  const int64_t rejected_before = tenant->rejected->Value();

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse resp;
  ASSERT_TRUE(client.Call("alpha", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  ASSERT_TRUE(client.Call("alpha", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kRejected);
  EXPECT_EQ(resp.reason, RejectReason::kQuotaExceeded);

  // Per-tenant metrics observed both calls; "beta" is untouched.
  EXPECT_EQ(tenant->requests->Value() - requests_before, 2);
  EXPECT_EQ(tenant->rejected->Value() - rejected_before, 1);
  server.Stop();
}

TEST_F(NetServerTest, MalformedFramingClosesConnection) {
  auto registry = MakeRegistry(*data_, TenantConfig());
  NetServer server(*registry, NetServerOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);

  uint8_t garbage[kFrameHeaderBytes];
  std::memset(garbage, 0xAB, sizeof(garbage));  // wrong magic
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  // The byte stream is untrusted after a bad header: no reply, EOF.
  uint8_t buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  // The server itself is unharmed.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse resp;
  ASSERT_TRUE(client.Call("beta", (*batches_)[0], true, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.message;
  server.Stop();
}

TEST_F(NetServerTest, RegistryReportsTenantsAndMemory) {
  auto registry = MakeRegistry(*data_, TenantConfig());
  EXPECT_EQ(registry->size(), 2);
  const std::vector<std::string> names = registry->TenantNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
  EXPECT_GT(registry->Find("alpha")->server->pool().memory_bytes(), 0);
  EXPECT_EQ(registry->Find("ghost"), nullptr);
}

}  // namespace
}  // namespace net
}  // namespace mcond
