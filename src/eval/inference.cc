#include "eval/inference.h"

#include <algorithm>
#include <limits>

#include "core/parallel.h"
#include "graph/compose.h"
#include "nn/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serving_session.h"

namespace mcond {

namespace {

/// The one serving path: one untimed warm-up Serve (it sizes every
/// workspace of the freshly built `session`), then `repeats` timed
/// steady-state Serve calls whose mean and min land in `seconds` /
/// `seconds_min`. Per-run timing comes from the tracer's spans, so
/// `--trace_out` figures and the reported latency agree by construction.
InferenceResult TimedServe(ServingSession& session, const HeldOutBatch& batch,
                           bool graph_batch, int64_t mapping_bytes, Rng& rng,
                           int64_t repeats) {
  MCOND_CHECK_GE(repeats, 1);
  obs::GetCounter("mcond.serve.requests").Increment();
  // Touch the pool before anything is timed: worker threads are created
  // lazily on first use, and that one-time cost belongs to the warm-up,
  // not to a timed repeat. Also expose the serving width for dashboards.
  obs::GetGauge("mcond.pool.threads")
      .Set(static_cast<double>(ThreadPool::Global().NumThreads()));

  InferenceResult result;
  double total_seconds = 0.0;
  double min_seconds = std::numeric_limits<double>::infinity();
  // rep == -1 is the warm-up iteration: identical work, excluded from the
  // reported timings so cold caches neither flatter nor penalize speedup
  // ratios between the original and condensed paths.
  for (int64_t rep = -1; rep < repeats; ++rep) {
    obs::TraceSpan serve_span("serve", /*always_time=*/true);
    const Tensor& logits = session.Serve(batch, graph_batch, rng);
    const double seconds = serve_span.ElapsedSeconds();
    if (rep < 0) {
      result.logits = logits;
      result.memory_bytes = session.memory_bytes() + mapping_bytes;
      obs::GetGauge("mcond.serve.composed_csr_bytes")
          .Set(static_cast<double>(session.composed_csr_bytes()));
    } else {
      total_seconds += seconds;
      min_seconds = std::min(min_seconds, seconds);
    }
  }
  result.seconds = total_seconds / static_cast<double>(repeats);
  result.seconds_min = min_seconds;
  result.accuracy = AccuracyFromLogits(result.logits, batch.labels);
  return result;
}

Deployment MakeDeployment(const Graph& base, const CsrMatrix& links,
                          const HeldOutBatch& batch) {
  Deployment dep;
  dep.adjacency = ComposeBlockAdjacency(base.adjacency(), links, batch.inter);
  dep.operators = GraphOperators::FromAdjacency(dep.adjacency);
  dep.features = ComposeFeatures(base.features(), batch.features);
  dep.known_labels = base.labels();
  dep.known_labels.resize(
      static_cast<size_t>(base.NumNodes() + batch.size()), -1);
  dep.num_base = base.NumNodes();
  dep.batch_size = batch.size();
  return dep;
}

}  // namespace

Deployment ComposeDeployment(const Graph& base, const HeldOutBatch& batch,
                             bool graph_batch) {
  const HeldOutBatch used = graph_batch ? batch : batch.WithoutInterEdges();
  return MakeDeployment(base, used.links, used);
}

Deployment ComposeDeployment(const CondensedGraph& condensed,
                             const HeldOutBatch& batch, bool graph_batch) {
  MCOND_CHECK_GT(condensed.mapping.Nnz(), 0)
      << "condensed artifact has no mapping; cannot compose deployment";
  // The conversion only reads `links`, which WithoutInterEdges preserves —
  // no need to materialize the filtered batch first.
  const CsrMatrix converted =
      CsrMatrix::Multiply(batch.links, condensed.mapping);
  return ComposeDeployment(condensed, converted, batch, graph_batch);
}

Deployment ComposeDeployment(const CondensedGraph& condensed,
                             const CsrMatrix& converted_links,
                             const HeldOutBatch& batch, bool graph_batch) {
  MCOND_CHECK_GT(condensed.mapping.Nnz(), 0)
      << "condensed artifact has no mapping; cannot compose deployment";
  MCOND_CHECK_EQ(converted_links.rows(), batch.size());
  MCOND_CHECK_EQ(converted_links.cols(), condensed.graph.NumNodes());
  const HeldOutBatch used = graph_batch ? batch : batch.WithoutInterEdges();
  return MakeDeployment(condensed.graph, converted_links, used);
}

InferenceResult ServeOnOriginal(GnnModel& model, const Graph& original,
                                const HeldOutBatch& batch, bool graph_batch,
                                Rng& rng, int64_t repeats) {
  ServingSession session(original, model);
  return TimedServe(session, batch, graph_batch, /*mapping_bytes=*/0, rng,
                    repeats);
}

InferenceResult ServeOnCondensed(GnnModel& model,
                                 const CondensedGraph& condensed,
                                 const HeldOutBatch& batch, bool graph_batch,
                                 Rng& rng, int64_t repeats) {
  MCOND_CHECK_GT(condensed.mapping.Nnz(), 0)
      << "condensed artifact has no mapping; cannot serve inductive nodes";
  MCOND_CHECK_EQ(batch.links.cols(), condensed.mapping.rows());
  // The session performs the aM conversion inside every Serve, so the
  // timings include it.
  ServingSession session(condensed, model);
  return TimedServe(session, batch, graph_batch,
                    condensed.mapping.StorageBytes(), rng, repeats);
}

}  // namespace mcond
