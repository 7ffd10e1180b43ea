#ifndef MCOND_NET_MODEL_REGISTRY_H_
#define MCOND_NET_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "condense/condensed.h"
#include "core/status.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "serve/concurrent_server.h"
#include "serve/session_base.h"

namespace mcond {
namespace net {

/// Deterministic token-bucket rate limiter: `rate_per_s` tokens accrue per
/// second up to a `burst` cap, one token per admitted request. The clock is
/// an explicit argument (microseconds on any monotone timeline), so tests
/// drive it with synthetic timestamps and get exact admit/reject sequences.
/// Not internally synchronized: callers serialize (the NetServer admits
/// every request on its single IO thread).
class TokenBucket {
 public:
  /// Unlimited — TryAcquire always succeeds.
  TokenBucket() = default;
  /// `rate_per_s` <= 0 means unlimited. `burst` <= 0 defaults to
  /// max(1, rate_per_s): at least one request can always be an instant
  /// admit after a long idle stretch.
  TokenBucket(double rate_per_s, double burst);

  /// Consumes one token if available at `now_us`; the bucket starts full.
  bool TryAcquire(uint64_t now_us);

  bool unlimited() const { return rate_per_s_ <= 0.0; }

 private:
  double rate_per_s_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  uint64_t last_us_ = 0;
  bool primed_ = false;
};

/// Per-tenant deployment knobs: the ConcurrentServer shape plus the quota.
struct TenantConfig {
  int num_replicas = 1;
  int queue_capacity = 64;
  /// Max requests one worker drains per queue pass.
  int micro_batch = 1;
  /// Admission quota in requests/second; 0 = unlimited.
  double quota_rps = 0.0;
  /// Quota burst; 0 defaults to max(1, quota_rps).
  double quota_burst = 0.0;
  /// Test hook, forwarded to ConcurrentServer::Config::start_paused.
  bool start_paused = false;
};

/// One named deployment: the condensed artifact (owned here — the
/// SessionBase stores references into it, so its address must never move),
/// the trained model, and a ConcurrentServer over a ReplicaPool. The
/// tenant's server always runs with block_when_full = false: at the
/// network boundary a full queue must surface as a protocol-level REJECTED
/// reply, never as a blocked IO thread.
struct Tenant {
  std::string name;
  std::unique_ptr<CondensedGraph> artifact;
  std::unique_ptr<GnnModel> model;
  std::shared_ptr<const SessionBase> base;
  std::unique_ptr<ConcurrentServer> server;
  TokenBucket quota;
  int64_t num_classes = 0;
  int64_t feat_dim = 0;

  // Cached per-tenant metric handles (`mcond.net.tenant.<name>.*`).
  obs::Counter* requests = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Histogram* latency_us = nullptr;
};

/// Owns N named tenants, each serving one condensed artifact. Tenants are
/// added (never removed — pointers returned by Find stay valid for the
/// registry's lifetime) from artifact files or in-memory artifacts; a
/// ModelFactory turns each artifact into a trained GnnModel, so the
/// registry is the single online-side owner of the offline→online handoff:
/// artifact in, serving tenant out.
///
/// Isolation: a corrupt or mismatched artifact fails that AddTenant call
/// with a Status and changes nothing else — previously loaded tenants keep
/// serving (registry_test locks this in). LoadDirectory applies the same
/// policy per file: skip-and-warn, never abort the batch.
class ModelRegistry {
 public:
  /// Builds a trained model for one artifact. Deterministic: the same
  /// artifact must yield bit-identical parameters on every call (the
  /// loopback determinism gate trains twice and memcmps logits).
  using ModelFactory = std::function<StatusOr<std::unique_ptr<GnnModel>>(
      const CondensedGraph&)>;

  /// The production default, mirroring `mcond_cli serve`: SGC trained
  /// full-batch on the synthetic graph for `train_epochs` with Rng(seed).
  static ModelFactory DefaultSgcFactory(int64_t train_epochs = 300,
                                        uint64_t seed = 1);

  explicit ModelRegistry(ModelFactory factory = DefaultSgcFactory());

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Loads `artifact_path` via artifact_io and deploys it as `name`.
  /// InvalidArgument on a corrupt/truncated artifact or a bad tenant name,
  /// FailedPrecondition on a duplicate name or an artifact with an empty
  /// mapping (nothing to convert inductive links through).
  Status AddTenant(const std::string& name, const std::string& artifact_path,
                   const TenantConfig& config);

  /// Same deployment path for an already-loaded artifact (tests, bench).
  Status AddTenant(const std::string& name, CondensedGraph artifact,
                   const TenantConfig& config);

  /// Deploys every regular file in `dir` (sorted by name; tenant = file
  /// stem sanitized to [a-z0-9_]). Files that fail to load or deploy are
  /// skipped with a warning. Returns the number of tenants added;
  /// NotFound if the directory does not exist or holds no loadable
  /// artifact.
  StatusOr<int> LoadDirectory(const std::string& dir,
                              const TenantConfig& config);

  /// Looks a tenant up by name; null if absent. The returned pointer stays
  /// valid for the registry's lifetime.
  Tenant* Find(std::string_view name);

  std::vector<std::string> TenantNames() const;
  int size() const;

  /// Valid tenant names are 1..64 chars of [a-z0-9_] — they embed into
  /// metric names and Prometheus label values unescaped.
  static bool ValidTenantName(std::string_view name);
  /// Lowercases and maps every other character to '_' (used to derive
  /// tenant names from file stems).
  static std::string SanitizeTenantName(std::string_view raw);

 private:
  Status Deploy(const std::string& name,
                std::unique_ptr<CondensedGraph> artifact,
                const TenantConfig& config);

  ModelFactory factory_;
  mutable std::mutex mu_;  // guards the map; tenants are immutable once in
  std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants_;
};

}  // namespace net
}  // namespace mcond

#endif  // MCOND_NET_MODEL_REGISTRY_H_
