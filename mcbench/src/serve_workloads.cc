// serve-small and serve-large: MCond artifacts condensed and SGC-trained in
// set-up, deployed in a net::ModelRegistry behind a NetServer, and driven
// over loopback by a load generator in this process.
//
// Phases of one run (seconds S):
//   set-up      dataset, condense, train, registry, server — repeated
//               kSetupReps times, median reported as setup_s;
//   closed loop 0.4 S: rps_max, the median over 0.5 s windows of completed
//               OK replies/s, with a fixed number of pipelined requests in
//               flight on one connection (the first 0.5 s is warm-up);
//   open loop   0.6 S: requests sent on a fixed schedule at the workload's
//               offered rate; latency is timed from each request's
//               scheduled send time;
//   verify      every OK reply's logit digest is compared with a solo
//               ServingSession serve of the same regenerated batch, and
//               test_acc is computed from those (bit-identical) logits.
//
// The deployment is a fixture (kFixtureSeed); --seed draws the traffic.
// Every request is a fresh seeded random subset of the test split: request
// keys never repeat within a run, so no reply can come from a cache.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "condense/mcond.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "data/datasets.h"
#include "net/model_registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "serve/serving_session.h"
#include "workloads.h"

namespace mcbench {
namespace {

using mcond::HeldOutBatch;
using mcond::Status;
using mcond::Tensor;

constexpr int kSetupReps = 3;
constexpr double kWarmupSeconds = 0.5;
constexpr double kWindowSeconds = 0.5;
// Upper bound on closed-loop replies/s, for reserving reply storage.
constexpr double kMaxClosedLoopRps = 150000.0;
constexpr double kFailedLatencyUs = 1e12;  // A failed request misses any limit.

struct ServeSpec {
  const char* dataset;
  std::vector<const char*> tenants;
  /// Reduction ratio r of each tenant's artifact.
  std::vector<double> ratios;
  /// Condensation epochs; outer rounds = epochs / 15 as in mcond_cli.
  int64_t condense_epochs;
  bool graph_batch;
  int64_t batch_lo;
  int64_t batch_hi;
  /// Fixed open-loop offered rate, req/s: about half the closed-loop
  /// capacity the machine delivered during host contention when the
  /// benchmark was defined, so contended runs are not overloaded
  /// (README.md, "Offered rates").
  double open_rate;
  int replicas_per_tenant;
  int micro_batch;
  /// Requests in flight on the closed loop's one connection.
  int pipeline;
};

const ServeSpec kServeSmall = {
    "pubmed-sim", {"alpha", "beta"}, {0.016, 0.032}, 240,
    /*graph_batch=*/false, 8, 32,
    /*open_rate=*/12500.0,
    /*replicas_per_tenant=*/1, /*micro_batch=*/4, /*pipeline=*/16};

const ServeSpec kServeLarge = {
    "reddit-sim", {"reddit"}, {0.02}, 60,
    /*graph_batch=*/true, 200, 400,
    /*open_rate=*/600.0,
    /*replicas_per_tenant=*/3, /*micro_batch=*/1, /*pipeline=*/6};

// Request keys: phase in the top byte, then connection and sequence number.
enum Phase : uint64_t { kClosed = 1, kOpen = 2 };
uint64_t Key(uint64_t phase, uint64_t conn, uint64_t seq) {
  return (phase << 56) | (conn << 40) | seq;
}

/// Regenerates the batch of any request key: the load generator and the
/// verifier call it independently and get the same batch.
class RequestGen {
 public:
  RequestGen(const HeldOutBatch& test, const ServeSpec& spec, uint64_t seed)
      : test_(&test), spec_(&spec), seed_(seed) {}

  int Tenant(uint64_t key) const {
    return static_cast<int>((key & 0xffffffffffull) %
                            spec_->tenants.size());
  }

  /// The batch of test nodes drawn for `key`: their features and labels,
  /// their links into the base graph, and (graph batches) the test-split
  /// edges among them. Built straight into CSR arrays so that the load
  /// generator costs far less per request than the server does.
  HeldOutBatch Make(uint64_t key) const {
    mcond::Rng rng(Mix(seed_ ^ Mix(key)));
    const HeldOutBatch& test = *test_;
    const int64_t pool = test.size();
    const int64_t n =
        rng.RandInt(std::min(spec_->batch_lo, pool),
                    std::min(spec_->batch_hi, pool));
    std::vector<int64_t> ids(static_cast<size_t>(pool));
    std::iota(ids.begin(), ids.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) {
      std::swap(ids[static_cast<size_t>(i)],
                ids[static_cast<size_t>(rng.RandInt(i, pool - 1))]);
    }
    ids.resize(static_cast<size_t>(n));

    HeldOutBatch b;
    b.features = mcond::GatherRows(test.features, ids);
    std::vector<int64_t> row_ptr{0};
    std::vector<int32_t> cols;
    std::vector<float> vals;
    for (int64_t id : ids) {
      b.labels.push_back(test.labels[static_cast<size_t>(id)]);
      for (int64_t k = test.links.row_ptr()[static_cast<size_t>(id)];
           k < test.links.row_ptr()[static_cast<size_t>(id) + 1]; ++k) {
        cols.push_back(test.links.col_idx()[static_cast<size_t>(k)]);
        vals.push_back(test.links.values()[static_cast<size_t>(k)]);
      }
      row_ptr.push_back(static_cast<int64_t>(cols.size()));
    }
    b.links = mcond::CsrMatrix::FromParts(n, test.links.cols(),
                                          std::move(row_ptr), std::move(cols),
                                          std::move(vals));
    row_ptr.assign(1, 0);
    cols.clear();
    vals.clear();
    if (spec_->graph_batch) {
      std::vector<int32_t> local(static_cast<size_t>(pool), -1);
      for (int64_t i = 0; i < n; ++i) {
        local[static_cast<size_t>(ids[static_cast<size_t>(i)])] =
            static_cast<int32_t>(i);
      }
      std::vector<std::pair<int32_t, float>> row;
      for (int64_t id : ids) {
        row.clear();
        for (int64_t k = test.inter.row_ptr()[static_cast<size_t>(id)];
             k < test.inter.row_ptr()[static_cast<size_t>(id) + 1]; ++k) {
          const int32_t c = local[static_cast<size_t>(
              test.inter.col_idx()[static_cast<size_t>(k)])];
          if (c >= 0) row.push_back({c, test.inter.values()[static_cast<size_t>(k)]});
        }
        std::sort(row.begin(), row.end());
        for (const auto& [c, v] : row) {
          cols.push_back(c);
          vals.push_back(v);
        }
        row_ptr.push_back(static_cast<int64_t>(cols.size()));
      }
    } else {
      row_ptr.assign(static_cast<size_t>(n) + 1, 0);
    }
    b.inter = mcond::CsrMatrix::FromParts(n, n, std::move(row_ptr),
                                          std::move(cols), std::move(vals));
    return b;
  }

 private:
  const HeldOutBatch* test_;
  const ServeSpec* spec_;
  uint64_t seed_;
};

struct SetupTimes {
  double generate_s = 0.0;
  double condense_s = 0.0;
  double train_s = 0.0;
  double registry_s = 0.0;
  double server_s = 0.0;
  double steal_rate = 0.0;  // host steal while this set-up ran
  double total() const {
    return generate_s + condense_s + train_s + registry_s + server_s;
  }
};

/// Condense spans captured from the last set-up's condense calls.
struct CondensePhases {
  double s_step_ms = 0.0;
  double m_step_ms = 0.0;
  double mapping_update_ms = 0.0;
  double round_ms = 0.0;
};

struct Deployment {
  mcond::InductiveDataset data;
  /// The registry's model factory hands out the model trained in set-up.
  std::shared_ptr<std::unique_ptr<mcond::GnnModel>> pending =
      std::make_shared<std::unique_ptr<mcond::GnnModel>>();
  std::unique_ptr<mcond::net::ModelRegistry> registry;
  std::unique_ptr<mcond::net::NetServer> server;

  ~Deployment() {
    if (server) server->Stop();
    server.reset();
    registry.reset();
  }
};

SetupTimes BuildDeployment(const ServeSpec& spec, uint64_t seed, bool trace,
                           Deployment* d, CondensePhases* phases) {
  SetupTimes t;
  const uint64_t start_us = NowMicros();
  double t0 = NowSeconds();
  {
    mcond::obs::TraceSpan span("bench.setup.generate");
    d->data = mcond::MakeDataset(
        mcond::FindDatasetSpec(spec.dataset).value(), seed);
  }
  t.generate_s = NowSeconds() - t0;

  std::vector<mcond::CondensedGraph> artifacts;
  *phases = CondensePhases{};
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    mcond::MCondConfig config;
    config.outer_rounds = std::max<int64_t>(1, spec.condense_epochs / 15);
    const int64_t n_syn =
        mcond::SyntheticNodeCount(d->data.train_graph, spec.ratios[i]);
    if (trace) mcond::obs::ClearTrace();
    t0 = NowSeconds();
    {
      mcond::obs::TraceSpan span("bench.setup.condense");
      artifacts.push_back(mcond::RunMCond(d->data.train_graph, d->data.val,
                                          n_syn, config, seed + i)
                              .condensed);
    }
    t.condense_s += NowSeconds() - t0;
    if (trace) {
      const auto spans = PhaseSpanTotals(
          {"condense.round", "condense.s_step", "condense.mapping_update",
           "condense.m_step"});
      phases->s_step_ms += spans.at("condense.s_step").self_us * 1e-3;
      phases->m_step_ms += spans.at("condense.m_step").self_us * 1e-3;
      phases->mapping_update_ms +=
          spans.at("condense.mapping_update").self_us * 1e-3;
      phases->round_ms += spans.at("condense.round").self_us * 1e-3;
      mcond::obs::ClearTrace();
    }
  }

  std::vector<std::unique_ptr<mcond::GnnModel>> models;
  t0 = NowSeconds();
  for (const mcond::CondensedGraph& artifact : artifacts) {
    mcond::obs::TraceSpan span("bench.setup.train");
    auto trained =
        mcond::net::ModelRegistry::DefaultSgcFactory(300, seed)(artifact);
    MCOND_CHECK(trained.ok()) << trained.status().ToString();
    models.push_back(std::move(trained).value());
  }
  t.train_s = NowSeconds() - t0;

  t0 = NowSeconds();
  {
    mcond::obs::TraceSpan span("bench.setup.registry");
    auto pending = d->pending;
    d->registry = std::make_unique<mcond::net::ModelRegistry>(
        [pending](const mcond::CondensedGraph&)
            -> mcond::StatusOr<std::unique_ptr<mcond::GnnModel>> {
          if (!*pending) return Status::Internal("no trained model pending");
          return std::move(*pending);
        });
    mcond::net::TenantConfig config;
    config.num_replicas = spec.replicas_per_tenant;
    config.micro_batch = spec.micro_batch;
    config.queue_capacity = 1024;
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      *d->pending = std::move(models[i]);
      const Status st = d->registry->AddTenant(
          spec.tenants[i], std::move(artifacts[i]), config);
      MCOND_CHECK(st.ok()) << st.ToString();
    }
  }
  t.registry_s = NowSeconds() - t0;

  t0 = NowSeconds();
  {
    mcond::obs::TraceSpan span("bench.setup.server");
    mcond::net::NetServerOptions options;  // ephemeral loopback port
    d->server = std::make_unique<mcond::net::NetServer>(*d->registry, options);
    const Status st = d->server->Start();
    MCOND_CHECK(st.ok()) << st.ToString();
  }
  t.server_s = NowSeconds() - t0;
  t.steal_rate = HostSteal().Rate(start_us, NowMicros());
  return t;
}

/// One reply as the load generator saw it.
struct Reply {
  uint64_t key = 0;
  uint64_t digest = 0;
  bool ok = false;
};

struct ClosedLoopResult {
  std::vector<Reply> replies;
  int64_t sent = 0;
  int64_t failed = 0;
  double rps_max = 0.0;
  int64_t windows = 0;
  int quiet_windows = 0;
};

/// Closed loop: one connection keeping `pipeline` requests in flight; a
/// reply frees a slot for the next request until the deadline.
ClosedLoopResult RunClosedLoop(const ServeSpec& spec, const RequestGen& gen,
                               int port, double seconds) {
  ClosedLoopResult out;
  const uint64_t start_us = NowMicros();
  const uint64_t measure_us =
      start_us + static_cast<uint64_t>(kWarmupSeconds * 1e6);
  const uint64_t end_us =
      start_us + static_cast<uint64_t>((kWarmupSeconds + seconds) * 1e6);
  // Reserved up front (untouched pages cost no RSS): growing these vectors
  // by doubling would add a throughput-dependent copy to the peak RSS.
  const size_t cap =
      static_cast<size_t>((kWarmupSeconds + seconds) * kMaxClosedLoopRps);
  out.replies.reserve(cap);
  std::vector<uint64_t> ok_recv_us;
  ok_recv_us.reserve(cap);

  mcond::net::NetClient client;
  const bool connected = client.Connect("127.0.0.1", port).ok();
  mcond::net::NetResponse resp;
  uint64_t seq = 0;
  int64_t outstanding = 0;
  const auto send_next = [&] {
    const uint64_t key = Key(kClosed, 0, seq++);
    ++out.sent;
    if (!client
             .Send(key, spec.tenants[static_cast<size_t>(gen.Tenant(key))],
                   gen.Make(key), spec.graph_batch)
             .ok()) {
      ++out.failed;
      return false;
    }
    ++outstanding;
    return true;
  };
  bool alive = connected;
  for (int i = 0; i < spec.pipeline && alive; ++i) alive = send_next();
  while (alive && outstanding > 0) {
    if (!client.Receive(&resp).ok()) break;
    --outstanding;
    const uint64_t now = NowMicros();
    Reply r;
    r.key = resp.request_id;
    r.ok = resp.status == mcond::net::WireStatus::kOk;
    if (r.ok) {
      r.digest = BitDigest(resp.logits);
      ok_recv_us.push_back(now);
    } else {
      ++out.failed;
    }
    out.replies.push_back(r);
    if (now < end_us) alive = send_next();
  }
  out.failed += outstanding;  // sent but never answered

  const int64_t windows =
      std::max<int64_t>(1, static_cast<int64_t>(seconds / kWindowSeconds));
  const uint64_t window_us = (end_us - measure_us) / windows;
  std::vector<int64_t> counts(static_cast<size_t>(windows), 0);
  for (uint64_t t : ok_recv_us) {
    if (t >= measure_us && t < measure_us + window_us * windows) {
      ++counts[static_cast<size_t>((t - measure_us) / window_us)];
    }
  }
  std::vector<double> rates, steal;
  for (int64_t w = 0; w < windows; ++w) {
    rates.push_back(static_cast<double>(counts[static_cast<size_t>(w)]) /
                    (window_us * 1e-6));
    steal.push_back(HostSteal().Rate(measure_us + w * window_us,
                                     measure_us + (w + 1) * window_us));
  }
  out.rps_max = QuietMedian(rates, steal, &out.quiet_windows);
  out.windows = windows;
  return out;
}

struct OpenLoopResult {
  std::vector<Reply> replies;
  std::vector<double> latency_us;  // from scheduled send time
  std::vector<uint64_t> due_us;    // scheduled send time of each sample
  std::vector<double> rtt_us;      // reply received - actually sent
  std::vector<double> wire_us;     // RTT - queue wait - service
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  std::vector<double> late_us;     // actual send - scheduled send
  int64_t sent = 0;
  int64_t failed = 0;
};

/// Open loop: request j is due at t0 + j / rate regardless of replies. One
/// connection, with a sender and a receiver thread.
OpenLoopResult RunOpenLoop(const ServeSpec& spec, const RequestGen& gen,
                           Deployment& d, double seconds) {
  const size_t n = static_cast<size_t>(spec.open_rate * seconds);
  std::vector<uint64_t> due_us(n), send_us(n, 0), recv_us(n, 0), qw(n, 0),
      svc(n, 0), digest(n, 0);
  std::vector<uint8_t> ok(n, 0), answered(n, 0);
  const uint64_t t0 = NowMicros() + 20000;
  for (size_t j = 0; j < n; ++j) {
    due_us[j] = t0 + static_cast<uint64_t>(static_cast<double>(j) * 1e6 /
                                           spec.open_rate);
  }
  // An unconnected client fails every Send and Receive at once, so a
  // failed connect counts every request as failed.
  mcond::net::NetClient client;
  client.Connect("127.0.0.1", d.server->port());
  std::atomic<size_t> received{0};
  std::thread sender([&] {
    // The default 50 us timer slack would make every send late by up to a
    // request interval at these rates.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t j = 0; j < n; ++j) {
      const uint64_t key = Key(kOpen, 0, j);
      const HeldOutBatch batch = gen.Make(key);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::microseconds(due_us[j])));
      send_us[j] = NowMicros();
      if (!client
               .Send(key, spec.tenants[static_cast<size_t>(gen.Tenant(key))],
                     batch, spec.graph_batch)
               .ok()) {
        return;
      }
    }
  });
  std::thread receiver([&] {
    mcond::net::NetResponse resp;
    for (size_t got = 0; got < n; ++got) {
      if (!client.Receive(&resp).ok()) return;
      const uint64_t now = NowMicros();
      const size_t j = static_cast<size_t>(resp.request_id & 0xffffffffffull);
      if (j >= n || answered[j]) continue;
      answered[j] = 1;
      recv_us[j] = now;
      qw[j] = resp.queue_wait_us;
      svc[j] = resp.service_us;
      ok[j] = resp.status == mcond::net::WireStatus::kOk;
      if (ok[j]) digest[j] = BitDigest(resp.logits);
      received.fetch_add(1);
    }
  });
  // The sender finishes on schedule; replies get a grace period, after
  // which the server is stopped so that the receiver returns and the
  // missing replies count as failed.
  sender.join();
  const double grace_end = NowSeconds() + 10.0;
  while (received.load() < n && NowSeconds() < grace_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (received.load() < n) d.server->Stop();
  receiver.join();
  client.Close();

  OpenLoopResult out;
  out.sent = static_cast<int64_t>(n);
  for (size_t j = 0; j < n; ++j) {
    out.due_us.push_back(due_us[j]);
    if (!ok[j]) {
      ++out.failed;
      out.latency_us.push_back(kFailedLatencyUs);
      if (answered[j]) out.replies.push_back({Key(kOpen, 0, j), 0, false});
      continue;
    }
    out.replies.push_back({Key(kOpen, 0, j), digest[j], true});
    out.latency_us.push_back(static_cast<double>(recv_us[j] - due_us[j]));
    const double rtt = static_cast<double>(recv_us[j] - send_us[j]);
    out.rtt_us.push_back(rtt);
    out.wire_us.push_back(rtt - static_cast<double>(qw[j] + svc[j]));
    out.queue_wait_us.push_back(static_cast<double>(qw[j]));
    out.service_us.push_back(static_cast<double>(svc[j]));
    out.late_us.push_back(static_cast<double>(send_us[j] - due_us[j]));
  }
  return out;
}

struct VerifyResult {
  int64_t checked = 0;
  int64_t mismatched = 0;
  int64_t nodes = 0;
  int64_t correct_nodes = 0;
};

/// Serves every OK reply's batch again through a solo ServingSession per
/// tenant (one per verifier thread, kernels inline) and compares digests.
VerifyResult Verify(const ServeSpec& spec, const RequestGen& gen,
                    Deployment& d, const std::vector<Reply>& replies) {
  const int threads_n = std::max(1, mcond::ThreadPool::DefaultNumThreads());
  std::vector<VerifyResult> per(static_cast<size_t>(threads_n));
  std::vector<std::thread> threads;
  for (int w = 0; w < threads_n; ++w) {
    threads.emplace_back([&, w] {
      mcond::ScopedInlineParallelRegion inline_region;
      std::vector<std::unique_ptr<mcond::ServingSession>> sessions;
      for (const char* name : spec.tenants) {
        mcond::net::Tenant* tenant = d.registry->Find(name);
        sessions.push_back(std::make_unique<mcond::ServingSession>(
            *tenant->artifact, *tenant->model));
      }
      mcond::Rng rng(7);
      VerifyResult& me = per[static_cast<size_t>(w)];
      for (size_t i = static_cast<size_t>(w); i < replies.size();
           i += static_cast<size_t>(threads_n)) {
        const Reply& r = replies[i];
        if (!r.ok) continue;
        const HeldOutBatch batch = gen.Make(r.key);
        const Tensor& logits =
            sessions[static_cast<size_t>(gen.Tenant(r.key))]->Serve(
                batch, spec.graph_batch, rng);
        ++me.checked;
        if (BitDigest(logits) != r.digest) ++me.mismatched;
        for (int64_t row = 0; row < logits.rows(); ++row) {
          const float* p = logits.data() + row * logits.cols();
          const int64_t pred = std::max_element(p, p + logits.cols()) - p;
          me.correct_nodes +=
              pred == batch.labels[static_cast<size_t>(row)] ? 1 : 0;
          ++me.nodes;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  VerifyResult out;
  for (const VerifyResult& v : per) {
    out.checked += v.checked;
    out.mismatched += v.mismatched;
    out.nodes += v.nodes;
    out.correct_nodes += v.correct_nodes;
  }
  return out;
}

/// Per-frame cost of the wire codec on this workload's own requests:
/// client-side encode, and the server-side parse path (header, body,
/// CSR validation, materialization).
void MeasureWireCodec(const ServeSpec& spec, const RequestGen& gen,
                      Result& result) {
  constexpr int kFrames = 500;
  std::vector<HeldOutBatch> batches;
  for (int i = 0; i < kFrames; ++i) batches.push_back(gen.Make(Key(kOpen, 1, i)));
  std::vector<uint8_t> frame;
  std::vector<std::vector<uint8_t>> frames;
  double encode_us = 0.0;
  for (int i = 0; i < kFrames; ++i) {
    frame.clear();
    const double t0 = PreciseMicros();
    mcond::net::EncodeRequestFrame(
        static_cast<uint64_t>(i), spec.tenants[0],
        batches[static_cast<size_t>(i)], spec.graph_batch, &frame);
    encode_us += PreciseMicros() - t0;
    frames.push_back(frame);
  }
  std::vector<uint64_t> aligned;  // 8-byte aligned copy of one frame
  HeldOutBatch materialized;
  double parse_us = 0.0;
  for (const std::vector<uint8_t>& f : frames) {
    aligned.assign((f.size() + 7) / 8, 0);
    std::memcpy(aligned.data(), f.data(), f.size());
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(aligned.data());
    const double t0 = PreciseMicros();
    mcond::net::FrameHeader header;
    Status st = mcond::net::ParseFrameHeader(
        bytes, f.size(), mcond::net::kDefaultMaxBodyBytes, &header);
    mcond::net::RequestView view;
    if (st.ok()) {
      st = mcond::net::ParseRequestBody(
          bytes + mcond::net::kFrameHeaderBytes, header.body_len,
          header.flags, &view);
    }
    if (st.ok()) st = mcond::net::ValidateRequestCsr(view);
    if (st.ok()) mcond::net::MaterializeBatch(view, &materialized);
    parse_us += PreciseMicros() - t0;
    if (!st.ok()) result.Fail("wire codec rejected a benchmark frame: " +
                              st.ToString());
  }
  result.Add("wire.encode_us", encode_us / kFrames, "us");
  result.Add("wire.parse_us", parse_us / kFrames, "us");
}

void RunServe(const ServeSpec& spec, const RunArgs& args, Result& result) {
  if (args.trace) mcond::obs::EnableTracing(true);
  // Set-up, repeated; each earlier deployment is torn down before the next.
  std::vector<SetupTimes> setups;
  CondensePhases phases;
  auto d = std::make_unique<Deployment>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) d = std::make_unique<Deployment>();
    setups.push_back(BuildDeployment(spec, kFixtureSeed, args.trace, d.get(),
                                     &phases));
  }
  // Serving spans would overflow the trace ring within a second at these
  // rates; serving layers are attributed from the per-request stamps the
  // response carries instead.
  mcond::obs::EnableTracing(false);
  mcond::obs::ClearTrace();
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> totals, condense, steal;
  for (const SetupTimes& s : setups) {
    totals.push_back(s.total());
    condense.push_back(s.condense_s);
    steal.push_back(s.steal_rate);
  }
  int quiet = 0;
  result.Add("setup_s", QuietMedian(totals, steal, &quiet), "s");
  result.Add("condense_s", QuietMedian(condense, steal, nullptr), "s");
  Result::Note("setup_s reps=%d (%d quiet) median=%.3f (generate %.3f, "
               "condense %.3f, train %.3f, registry %.3f, server %.4f)",
               kSetupReps, quiet, result.Get("setup_s"),
               median_of(&SetupTimes::generate_s),
               median_of(&SetupTimes::condense_s),
               median_of(&SetupTimes::train_s),
               median_of(&SetupTimes::registry_s),
               median_of(&SetupTimes::server_s));

  const RequestGen gen(d->data.test, spec, args.seed);
  const double closed_s = 0.4 * args.seconds;
  const double open_s = 0.6 * args.seconds;

  const MetricsDelta serve_delta;
  const ProcUsage usage0 = ProcUsage::Now();
  ClosedLoopResult closed =
      RunClosedLoop(spec, gen, d->server->port(), closed_s);
  OpenLoopResult open = RunOpenLoop(spec, gen, *d, open_s);
  const ProcUsage usage = ProcUsage::Now() - usage0;
  const int64_t net_requests = serve_delta.Counter("mcond.net.requests");
  const int64_t net_bytes = serve_delta.Counter("mcond.net.bytes_rx") +
                            serve_delta.Counter("mcond.net.bytes_tx");
  const int64_t server_requests = serve_delta.Counter("mcond.server.requests");
  const int64_t micro_batches =
      serve_delta.Counter("mcond.server.micro_batches");
  const auto hist_mean = [&](const char* name) {
    const int64_t c = serve_delta.HistCount(name);
    return c > 0 ? static_cast<double>(serve_delta.HistSum(name)) / c : 0.0;
  };
  const double convert_mean = hist_mean("mcond.serve.session_convert_us");
  const double compose_mean = hist_mean("mcond.serve.session_compose_us");
  const double forward_mean = hist_mean("mcond.serve.session_forward_us");
  const int64_t fallbacks =
      serve_delta.Counter("mcond.serve.session_fallbacks");
  const int64_t pool_jobs = serve_delta.Counter("mcond.pool.jobs");
  const int64_t pool_tasks = serve_delta.Counter("mcond.pool.tasks");
  const double busy_ratio = MeanWorkerBusyRatio();

  VerifyResult verify = Verify(spec, gen, *d, closed.replies);
  const VerifyResult verify_open = Verify(spec, gen, *d, open.replies);
  verify.checked += verify_open.checked;
  verify.mismatched += verify_open.mismatched;
  verify.nodes += verify_open.nodes;
  verify.correct_nodes += verify_open.correct_nodes;

  const int64_t sent = closed.sent + open.sent;
  const int64_t failed = closed.failed + open.failed;
  result.attempted = sent;
  result.failed = failed;
  if (verify.mismatched > 0) {
    result.Fail(std::to_string(verify.mismatched) + " of " +
                std::to_string(verify.checked) +
                " replies differ from a solo ServingSession serve");
  }
  if (verify.checked == 0) result.Fail("no request was served");
  const WindowedResult windowed =
      WindowedQuantiles(open.latency_us, open.due_us);
  const Quantiles& lat = windowed.q;
  const Quantiles whole = ExactQuantiles(open.latency_us);
  result.Add("rps_max", closed.rps_max, "req/s");
  result.Add("lat_p50_us", lat.p50, "us");
  result.Add("lat_p99_us", lat.p99, "us");
  result.Add("ok_ratio",
             sent > 0 ? static_cast<double>(sent - failed) / sent : 0.0,
             "ratio");
  result.Add("test_acc",
             verify.nodes > 0
                 ? static_cast<double>(verify.correct_nodes) / verify.nodes
                 : 0.0,
             "ratio");
  Result::Note("closed loop: %lld sent, rps_max %.1f (median of %lld "
               "windows of %.1f s, %d quiet; %d in flight)",
               static_cast<long long>(closed.sent), closed.rps_max,
               static_cast<long long>(closed.windows), kWindowSeconds,
               closed.quiet_windows, spec.pipeline);
  Result::Note("open loop: %.0f req/s offered, %lld sent, %lld failed; "
               "latency p50 %.1f us (median over %zu windows, %d quiet) p99 "
               "%.1f us (median over %zu windows, >= %lld beyond each "
               "window's p99); whole run p50 %.1f us p99 %.1f us over %lld "
               "samples (%lld beyond p99)",
               spec.open_rate, static_cast<long long>(open.sent),
               static_cast<long long>(open.failed), lat.p50,
               windowed.p50s.size(), windowed.quiet_p50_windows, lat.p99,
               windowed.p99s.size(), static_cast<long long>(lat.beyond_p99),
               whole.p50, whole.p99, static_cast<long long>(whole.samples),
               static_cast<long long>(whole.beyond_p99));
  std::string per_window;
  for (double p99 : windowed.p99s) {
    per_window += " " + std::to_string(static_cast<int64_t>(p99));
  }
  Result::Note("open loop p99 per window (us):%s", per_window.c_str());
  Result::Note("verify: %lld replies bit-identical to solo serves, %lld "
               "mismatched; test_acc %.4f over %lld nodes",
               static_cast<long long>(verify.checked - verify.mismatched),
               static_cast<long long>(verify.mismatched),
               result.Get("test_acc"), static_cast<long long>(verify.nodes));
  if (lat.beyond_p99 < 10) {
    Result::Note("warning: only %lld samples beyond p99",
                 static_cast<long long>(lat.beyond_p99));
  }
  if (!args.trace) return;

  // ---- Per-layer attribution (traced run only). ----
  const Quantiles wire = ExactQuantiles(open.wire_us);
  const Quantiles qwait = ExactQuantiles(open.queue_wait_us);
  const Quantiles service = ExactQuantiles(open.service_us);
  const Quantiles late = ExactQuantiles(open.late_us);
  result.Add("net.wire_us_p50", wire.p50, "us");
  result.Add("net.wire_us_p99", wire.p99, "us");
  result.Add("net.rtt_us_p50", ExactQuantiles(open.rtt_us).p50, "us");
  result.Add("net.bytes_per_req",
             net_requests > 0 ? static_cast<double>(net_bytes) / net_requests
                              : 0.0,
             "B");
  result.Add("server.queue_wait_us_p50", qwait.p50, "us");
  result.Add("server.queue_wait_us_p99", qwait.p99, "us");
  result.Add("server.coalesce_ratio",
             micro_batches > 0
                 ? static_cast<double>(server_requests) / micro_batches
                 : 0.0,
             "ratio");
  result.Add("server.service_us_p50", service.p50, "us");
  result.Add("server.service_us_p99", service.p99, "us");
  result.Add("server.busy_ratio", busy_ratio, "ratio");
  result.Add("session.convert_us_mean", convert_mean, "us");
  result.Add("session.compose_us_mean", compose_mean, "us");
  result.Add("session.forward_us_mean", forward_mean, "us");
  result.Add("session.fallbacks", static_cast<double>(fallbacks), "count");
  result.Add("loadgen.late_us_p99", late.p99, "us");
  result.Add("loadgen.sent", static_cast<double>(sent), "count");
  result.Add("loadgen.ok", static_cast<double>(sent - failed), "count");
  result.Add("loadgen.fail_ratio",
             sent > 0 ? static_cast<double>(failed) / sent : 0.0, "ratio");
  result.Add("loadgen.lat_samples", static_cast<double>(lat.samples), "count");
  result.Add("loadgen.lat_beyond_p99", static_cast<double>(lat.beyond_p99),
             "count");
  result.Add("pool.jobs", static_cast<double>(pool_jobs), "count");
  result.Add("pool.tasks", static_cast<double>(pool_tasks), "count");
  result.Add("proc.cpu_util",
             (usage.user_s + usage.sys_s) /
                 (usage.wall_s * mcond::ThreadPool::DefaultNumThreads()),
             "ratio");
  result.Add("proc.sys_s", usage.sys_s, "s");
  result.Add("proc.minor_faults", static_cast<double>(usage.minor_faults),
             "count");

  int64_t base_bytes = 0;
  int64_t workspace_bytes = 0;
  for (const char* name : spec.tenants) {
    mcond::net::Tenant* tenant = d->registry->Find(name);
    base_bytes += tenant->base->memory_bytes();
    workspace_bytes +=
        tenant->server->pool().memory_bytes() - tenant->base->memory_bytes();
  }
  result.Add("session.base_mb", base_bytes / (1024.0 * 1024.0), "MB");
  result.Add("session.workspace_mb", workspace_bytes / (1024.0 * 1024.0),
             "MB");
  result.Add("setup.generate_s", median_of(&SetupTimes::generate_s), "s");
  result.Add("setup.condense_s", median_of(&SetupTimes::condense_s), "s");
  result.Add("setup.train_s", median_of(&SetupTimes::train_s), "s");
  result.Add("setup.registry_s", median_of(&SetupTimes::registry_s), "s");
  result.Add("condense.s_step_ms", phases.s_step_ms, "ms");
  result.Add("condense.m_step_ms", phases.m_step_ms, "ms");
  result.Add("condense.mapping_update_ms", phases.mapping_update_ms, "ms");
  result.Add("condense.round_ms", phases.round_ms, "ms");

  // Solo session on the same stream, one request at a time on this thread
  // (kernels use the global pool).
  {
    mcond::net::Tenant* tenant = d->registry->Find(spec.tenants[0]);
    mcond::ServingSession session(*tenant->artifact, *tenant->model);
    mcond::Rng rng(7);
    std::vector<double> serve_us;
    for (uint64_t j = 0; serve_us.size() < 1000 && j < 100000; ++j) {
      const uint64_t key = Key(kOpen, 0, j);
      if (gen.Tenant(key) != 0) continue;
      const HeldOutBatch batch = gen.Make(key);
      const double t0 = PreciseMicros();
      session.Serve(batch, spec.graph_batch, rng);
      serve_us.push_back(PreciseMicros() - t0);
    }
    result.Add("session.serve_us_p50", ExactQuantiles(serve_us).p50, "us");
  }
  MeasureWireCodec(spec, gen, result);
}

}  // namespace

void RunServeSmall(const RunArgs& args, Result& result) {
  RunServe(kServeSmall, args, result);
}

void RunServeLarge(const RunArgs& args, Result& result) {
  RunServe(kServeLarge, args, result);
}

}  // namespace mcbench
