#include "condense/condense_source.h"

#include <algorithm>
#include <filesystem>

#include "core/logging.h"
#include "core/tensor_ops.h"
#include "graph/compose.h"

namespace mcond {

std::vector<int64_t> ClassBlockedLabeledNodes(
    const std::vector<int64_t>& labels) {
  std::vector<int64_t> out = LabeledNodes(labels);
  std::sort(out.begin(), out.end(), [&](int64_t a, int64_t b) {
    const int64_t ca = labels[static_cast<size_t>(a)];
    const int64_t cb = labels[static_cast<size_t>(b)];
    return ca != cb ? ca < cb : a < b;
  });
  return out;
}

std::vector<std::pair<int64_t, int64_t>> ClassGradBlocks(
    const std::vector<int64_t>& blocked_labels) {
  std::vector<std::pair<int64_t, int64_t>> blocks;
  const int64_t n = static_cast<int64_t>(blocked_labels.size());
  int64_t run_begin = 0;
  for (int64_t i = 1; i <= n; ++i) {
    if (i == n ||
        blocked_labels[static_cast<size_t>(i)] !=
            blocked_labels[static_cast<size_t>(run_begin)]) {
      for (int64_t b = run_begin; b < i; b += kGradBlockRows) {
        blocks.emplace_back(b, std::min(b + kGradBlockRows, i));
      }
      run_begin = i;
    }
  }
  return blocks;
}

std::vector<int64_t> CondenseSource::ClassCounts() const {
  return mcond::ClassCounts(labels(), num_classes());
}

namespace {

Tensor PropagateSparse(const CsrMatrix& a_hat, const Tensor& x,
                       int64_t depth) {
  Tensor z = x;
  for (int64_t i = 0; i < depth; ++i) z = a_hat.SpMM(z);
  return z;
}

}  // namespace

Tensor ResidentCondenseSource::PropagateNormalized(
    const Tensor& x, int64_t depth, const std::vector<int64_t>& keep) const {
  Tensor z = PropagateSparse(graph_->normalized_adjacency(), x, depth);
  if (keep.empty()) return z;
  return GatherRows(z, keep);
}

EdgeBatch ResidentCondenseSource::SampleEdges(int64_t num_pos,
                                              int64_t num_neg,
                                              Rng& rng) const {
  return SampleEdgeBatch(graph_->adjacency(), num_pos, num_neg, rng);
}

Tensor ResidentCondenseSource::PropagateComposedSupportTail(
    const HeldOutBatch& support, int64_t depth) const {
  const int64_t n_orig = graph_->NumNodes();
  const CsrMatrix composed = ComposeBlockAdjacency(
      graph_->adjacency(), support.links, support.inter);
  const CsrMatrix composed_norm = SymNormalize(composed);
  const Tensor x_all = ComposeFeatures(graph_->features(), support.features);
  const Tensor z_all = PropagateSparse(composed_norm, x_all, depth);
  return SliceRows(z_all, n_orig, n_orig + support.size());
}

ShardedCondenseSource::ShardedCondenseSource(const ShardedGraph& graph,
                                             std::string scratch_dir,
                                             const ShardOptions& options)
    : graph_(&graph),
      scratch_dir_(std::move(scratch_dir)),
      options_(options),
      mem_budget_bytes_(graph.normalized ? graph.normalized->mem_budget_bytes()
                                         : 0) {
  MCOND_CHECK(graph.adjacency && graph.normalized)
      << "ShardedCondenseSource needs both adjacency stores";
}

Tensor ShardedCondenseSource::PropagateNormalized(
    const Tensor& x, int64_t depth, const std::vector<int64_t>& keep) const {
  StatusOr<Tensor> z = ShardedPropagate(*graph_->normalized, x, depth, keep);
  MCOND_CHECK(z.ok()) << "sharded propagate failed: "
                      << z.status().ToString();
  return std::move(z).value();
}

EdgeBatch ShardedCondenseSource::SampleEdges(int64_t num_pos, int64_t num_neg,
                                             Rng& rng) const {
  StatusOr<EdgeBatch> batch =
      ShardedSampleEdgeBatch(*graph_->adjacency, num_pos, num_neg, rng);
  MCOND_CHECK(batch.ok()) << "sharded edge sampling failed: "
                          << batch.status().ToString();
  return std::move(batch).value();
}

Tensor ShardedCondenseSource::PropagateComposedSupportTail(
    const HeldOutBatch& support, int64_t depth) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(scratch_dir_, ec);
  MCOND_CHECK(!ec) << "cannot create scratch dir " << scratch_dir_ << ": "
                   << ec.message();
  const std::string composed_path = scratch_dir_ + "/composed.mcss";
  const std::string norm_path = scratch_dir_ + "/composed_norm.mcss";

  const int64_t n_orig = graph_->NumNodes();
  const int64_t n_sup = support.size();
  std::vector<int64_t> keep(static_cast<size_t>(n_sup));
  for (int64_t i = 0; i < n_sup; ++i) keep[static_cast<size_t>(i)] = n_orig + i;

  Tensor z_tail;
  {
    StatusOr<ShardedCsr> composed = ShardedComposeBlockAdjacency(
        *graph_->adjacency, support.links, support.inter, composed_path,
        options_, mem_budget_bytes_);
    MCOND_CHECK(composed.ok()) << "sharded compose failed: "
                               << composed.status().ToString();
    StatusOr<ShardedCsr> composed_norm = ShardedSymNormalize(
        composed.value(), norm_path, options_, mem_budget_bytes_);
    MCOND_CHECK(composed_norm.ok()) << "sharded sym-normalize failed: "
                                    << composed_norm.status().ToString();
    const Tensor x_all = ComposeFeatures(graph_->features, support.features);
    StatusOr<Tensor> z =
        ShardedPropagate(composed_norm.value(), x_all, depth, keep);
    MCOND_CHECK(z.ok()) << "sharded composed propagate failed: "
                        << z.status().ToString();
    z_tail = std::move(z).value();
  }  // Stores closed (fds/mmaps released) before the files are removed.
  fs::remove(composed_path, ec);
  fs::remove(norm_path, ec);
  return z_tail;
}

}  // namespace mcond
