#ifndef MCOND_CONDENSE_CONDENSE_SOURCE_H_
#define MCOND_CONDENSE_CONDENSE_SOURCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "graph/graph.h"
#include "graph/inductive.h"
#include "graph/sampling.h"
#include "graph/sharded_ops.h"

namespace mcond {

/// Row cap of one class-block gradient sub-chunk. Class runs longer than
/// this split at fixed multiples of it, so the block partition — and with it
/// the merged-gradient bit pattern — depends only on the label distribution,
/// never on thread count or memory budget.
inline constexpr int64_t kGradBlockRows = 65536;

/// Labeled node ids sorted by (class, id): each class occupies one
/// contiguous run, the layout class-block gradient matching slices.
std::vector<int64_t> ClassBlockedLabeledNodes(
    const std::vector<int64_t>& labels);

/// [begin, end) blocks over labels already laid out in contiguous class
/// runs (ClassBlockedLabeledNodes order): one block per class, further split
/// every kGradBlockRows rows. Blocks tile [0, labels.size()) in order.
std::vector<std::pair<int64_t, int64_t>> ClassGradBlocks(
    const std::vector<int64_t>& blocked_labels);

/// What the MCond loop needs from the original graph T, abstracted so the
/// same alternating optimization runs against a resident Graph or an
/// out-of-core ShardedGraph. The two implementations are bit-identical on
/// the same graph: they run the same row kernels, once over the whole
/// matrix and once per pinned segment (graph/sharded_ops.h).
///
/// Streamed-IO failures inside a source are fatal (MCOND_CHECK): the
/// condense loop has no mid-round recovery story, and Open-time validation
/// (core/sharded_csr.h) already surfaces every corrupt-file case as Status.
class CondenseSource {
 public:
  virtual ~CondenseSource() = default;

  virtual int64_t NumNodes() const = 0;
  virtual int64_t FeatureDim() const = 0;
  virtual int64_t num_classes() const = 0;
  virtual const Tensor& features() const = 0;
  virtual const std::vector<int64_t>& labels() const = 0;

  /// Â^depth X over the sym-normalized adjacency. With a non-empty `keep`,
  /// row i of the result is propagated row keep[i] — and implementations
  /// may avoid materializing the final full N×d hop.
  virtual Tensor PropagateNormalized(
      const Tensor& x, int64_t depth,
      const std::vector<int64_t>& keep = {}) const = 0;

  /// SampleEdgeBatch against the raw adjacency (identical RNG draw
  /// sequence across implementations).
  virtual EdgeBatch SampleEdges(int64_t num_pos, int64_t num_neg,
                                Rng& rng) const = 0;

  /// The support block's rows of Â_comp^depth [X; X_sup], where A_comp is
  /// the Eq. (3) composition of this graph with the support batch — the
  /// ℒ_ind targets' propagated features.
  virtual Tensor PropagateComposedSupportTail(const HeldOutBatch& support,
                                              int64_t depth) const = 0;

  std::vector<int64_t> ClassCounts() const;
};

/// Everything in-memory: delegates to the cached normalized adjacency and
/// the resident compose/normalize/sample kernels, exactly as RunMCond did
/// before this abstraction existed.
class ResidentCondenseSource : public CondenseSource {
 public:
  explicit ResidentCondenseSource(const Graph& graph) : graph_(&graph) {}

  int64_t NumNodes() const override { return graph_->NumNodes(); }
  int64_t FeatureDim() const override { return graph_->FeatureDim(); }
  int64_t num_classes() const override { return graph_->num_classes(); }
  const Tensor& features() const override { return graph_->features(); }
  const std::vector<int64_t>& labels() const override {
    return graph_->labels();
  }
  Tensor PropagateNormalized(const Tensor& x, int64_t depth,
                             const std::vector<int64_t>& keep) const override;
  EdgeBatch SampleEdges(int64_t num_pos, int64_t num_neg,
                        Rng& rng) const override;
  Tensor PropagateComposedSupportTail(const HeldOutBatch& support,
                                      int64_t depth) const override;

 private:
  const Graph* graph_;
};

/// Out-of-core: adjacency/normalized live in segment stores; composed
/// support operators are streamed through scratch stores under
/// `scratch_dir` (created on demand, removed after use).
class ShardedCondenseSource : public CondenseSource {
 public:
  ShardedCondenseSource(const ShardedGraph& graph, std::string scratch_dir,
                        const ShardOptions& options = {});

  int64_t NumNodes() const override { return graph_->NumNodes(); }
  int64_t FeatureDim() const override { return graph_->FeatureDim(); }
  int64_t num_classes() const override { return graph_->num_classes; }
  const Tensor& features() const override { return graph_->features; }
  const std::vector<int64_t>& labels() const override {
    return graph_->labels;
  }
  Tensor PropagateNormalized(const Tensor& x, int64_t depth,
                             const std::vector<int64_t>& keep) const override;
  EdgeBatch SampleEdges(int64_t num_pos, int64_t num_neg,
                        Rng& rng) const override;
  Tensor PropagateComposedSupportTail(const HeldOutBatch& support,
                                      int64_t depth) const override;

 private:
  const ShardedGraph* graph_;
  std::string scratch_dir_;
  ShardOptions options_;
  int64_t mem_budget_bytes_;
};

}  // namespace mcond

#endif  // MCOND_CONDENSE_CONDENSE_SOURCE_H_
