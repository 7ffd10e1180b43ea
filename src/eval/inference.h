#ifndef MCOND_EVAL_INFERENCE_H_
#define MCOND_EVAL_INFERENCE_H_

#include <cstdint>

#include "condense/condensed.h"
#include "graph/inductive.h"
#include "nn/module.h"

namespace mcond {

/// Outcome of serving one batch of inductive nodes.
struct InferenceResult {
  /// n×C logits for the batch (rows align with batch features).
  Tensor logits;
  /// Mean wall-clock seconds per serve, over `repeats` timed runs after
  /// one untimed warm-up run (the warm-up sizes the session's workspaces so
  /// cold caches don't skew speedup ratios). Includes the whole serving
  /// path: link conversion (aM), block composition, incremental
  /// normalization, and the GNN forward pass.
  double seconds = 0.0;
  /// Fastest of the timed runs — a cache-warm lower bound to report
  /// alongside the mean.
  double seconds_min = 0.0;
  /// The paper's memory model (§II-B): CSR bytes of the composed adjacency
  /// + (N+n)·d feature floats (+ mapping bytes when one is used).
  int64_t memory_bytes = 0;
  /// Accuracy against the batch labels (filled by the Serve* helpers).
  double accuracy = 0.0;
};

/// A fully composed deployed graph (base + attached batch), built from
/// scratch. It is the reference the serving path is tested against, and it
/// serves workloads that need more than one forward pass over the same
/// deployment — the LP/EP calibration of §IV-D runs propagation on exactly
/// this structure.
struct Deployment {
  /// Composed raw adjacency (Eq. 3 or Eq. 11).
  CsrMatrix adjacency;
  GraphOperators operators;
  /// Stacked features [base; batch].
  Tensor features;
  /// Labels for all composed nodes: base labels followed by -1 for every
  /// batch node (their labels are never visible to calibration).
  std::vector<int64_t> known_labels;
  int64_t num_base = 0;
  int64_t batch_size = 0;
};

/// Composes the original-graph deployment of Eq. (3).
Deployment ComposeDeployment(const Graph& base, const HeldOutBatch& batch,
                             bool graph_batch);

/// Composes the synthetic-graph deployment of Eq. (11): links are converted
/// through the mapping (aM) first.
Deployment ComposeDeployment(const CondensedGraph& condensed,
                             const HeldOutBatch& batch, bool graph_batch);

/// Same, for callers that already ran the aM conversion (e.g. once for
/// both batch modes) — avoids recomputing the SpGEMM. `converted_links`
/// must equal CsrMatrix::Multiply(batch.links, condensed.mapping).
Deployment ComposeDeployment(const CondensedGraph& condensed,
                             const CsrMatrix& converted_links,
                             const HeldOutBatch& batch, bool graph_batch);

/// Serves `batch` by attaching it to the original graph (Eq. 3) — the
/// "Whole"/·→O path. Builds one serve::ServingSession (untimed), runs one
/// untimed warm-up Serve and then `repeats` timed ones; the logits are
/// bit-identical to ComposeDeployment + Predict.
InferenceResult ServeOnOriginal(GnnModel& model, const Graph& original,
                                const HeldOutBatch& batch, bool graph_batch,
                                Rng& rng, int64_t repeats = 3);

/// Serves `batch` by converting its links through the mapping and attaching
/// it to the condensed graph (Eq. 11) — the ·→S path — through a
/// ServingSession, as ServeOnOriginal does. The condensed artifact must
/// carry a non-empty mapping.
InferenceResult ServeOnCondensed(GnnModel& model,
                                 const CondensedGraph& condensed,
                                 const HeldOutBatch& batch, bool graph_batch,
                                 Rng& rng, int64_t repeats = 3);

}  // namespace mcond

#endif  // MCOND_EVAL_INFERENCE_H_
