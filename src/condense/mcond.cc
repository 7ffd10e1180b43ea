#include "condense/mcond.h"

#include <memory>
#include <optional>
#include <utility>

#include "autograd/optimizer.h"
#include "condense/adjacency_generator.h"
#include "condense/class_distribution.h"
#include "condense/condense_source.h"
#include "condense/dense_ops.h"
#include "condense/gradient_matching.h"
#include "condense/relay_sgc.h"
#include "core/parallel.h"
#include "core/tensor_arena.h"
#include "core/tensor_ops.h"
#include "graph/sampling.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace mcond {

CondensedGraph MCondResult::Sparsify(float mu, float delta) const {
  CondensedGraph out;
  CsrMatrix adj =
      CsrMatrix::FromDense(dense_adjacency, /*drop_tol=*/0.0f).Thresholded(mu);
  out.graph = Graph(std::move(adj), synthetic_features, synthetic_labels,
                    condensed.graph.num_classes());
  if (dense_mapping.rows() > 0) {
    out.mapping = CsrMatrix::FromDense(dense_mapping, /*drop_tol=*/0.0f)
                      .Thresholded(delta);
  }
  return out;
}

namespace {

MCondResult RunAlgorithm1(const CondenseSource& source,
                          const HeldOutBatch& support, int64_t num_synthetic,
                          const MCondConfig& config, uint64_t seed) {
  Rng rng(seed);
  const int64_t n_orig = source.NumNodes();
  const int64_t d = source.FeatureDim();
  const int64_t num_classes = source.num_classes();
  MCOND_CHECK_GE(num_synthetic, num_classes);
  MCOND_CHECK_LT(num_synthetic, n_orig);

  // --- Predefine Y' and initialize X' (§III-A). ---
  const std::vector<int64_t> synthetic_labels =
      AllocateSyntheticLabels(source.ClassCounts(), num_synthetic);
  Variable x_syn = MakeVariable(
      InitializeSyntheticFeatures(source.features(), source.labels(),
                                  num_classes, synthetic_labels, rng),
      /*requires_grad=*/true);

  AdjacencyGenerator generator(d, config.gen_hidden, rng);
  RelaySgc relay(d, config.relay_hidden, num_classes, config.relay_depth,
                 rng);

  // The N×N' mapping is dense learnable state — at out-of-core scales it is
  // the single largest allocation of the whole loop, so it exists only when
  // it is actually learned (GCond mode condenses million-node graphs with no
  // N-sized dense state beyond one propagated feature block).
  std::unique_ptr<MappingMatrix> mapping;
  if (config.learn_mapping) {
    mapping = std::make_unique<MappingMatrix>(n_orig, num_synthetic,
                                              config.mapping);
    if (config.class_aware_init) {
      mapping->InitializeClassAware(source.labels(), synthetic_labels);
    } else {
      mapping->InitializeRandom(rng);
    }
  }

  // --- Constants of the original-graph side. ---
  // The relay is linear, so Â^L X is computed once and reused for every
  // gradient-matching step and every embedding target. Labeled rows are laid
  // out in class-block order; the gradient-matching loop runs one fixed
  // block per pool thread and merges them in block order, so at most
  // pool-width blocks of forward state (their rows of Z, and rows×C logits)
  // are live and every path and thread count gives the same bits.
  const std::vector<int64_t> labeled =
      ClassBlockedLabeledNodes(source.labels());
  MCOND_CHECK(!labeled.empty());
  std::vector<int64_t> labeled_y;
  labeled_y.reserve(labeled.size());
  for (int64_t i : labeled) {
    labeled_y.push_back(source.labels()[static_cast<size_t>(i)]);
  }
  const std::vector<std::pair<int64_t, int64_t>> grad_blocks =
      ClassGradBlocks(labeled_y);

  // The full N×d propagation is only an ℒ_tra target (Eq. 10); without a
  // mapping to train, only the labeled rows are ever read, and the keep-list
  // propagation skips the final full-size hop.
  Tensor z_orig;
  Tensor z_labeled;
  {
    MCOND_TRACE_SPAN("condense.setup.propagate");
    if (config.learn_mapping) {
      z_orig =
          source.PropagateNormalized(source.features(), config.relay_depth);
      z_labeled = GatherRows(z_orig, labeled);
    } else {
      z_labeled =
          source.PropagateNormalized(source.features(), config.relay_depth,
                                     labeled);
    }
  }

  // Support-side constants for ℒ_ind: the target embeddings H_sup come from
  // attaching the support nodes to the *original* graph (Eq. 3) — but they
  // depend on the relay weights, so only the propagated features are
  // precomputed here.
  const int64_t n_sup = support.size();
  Tensor z_sup_on_original;
  if (config.use_inductive_loss && config.learn_mapping) {
    MCOND_TRACE_SPAN("condense.setup.support_tail");
    z_sup_on_original =
        source.PropagateComposedSupportTail(support, config.relay_depth);
  }

  // --- Optimizers. ---
  AdamOptimizer opt_features({x_syn}, config.lr_features);
  AdamOptimizer opt_generator(generator.Parameters(), config.lr_adjacency);
  // Weight decay keeps the relay's logits calibrated: it trains on the few
  // synthetic nodes and would otherwise blow up their logit scale, making
  // the mapping targets H (original graph) unmatchable by any row-
  // normalized mixture of H' (synthetic) rows.
  AdamOptimizer opt_relay(relay.Parameters(), config.lr_relay,
                          /*weight_decay=*/5e-4f);
  std::unique_ptr<AdamOptimizer> opt_mapping;
  if (mapping) {
    opt_mapping = std::make_unique<AdamOptimizer>(mapping->Parameters(),
                                                  config.lr_mapping);
  }

  MCondResult result;
  result.synthetic_labels = synthetic_labels;

  obs::Series& loss_s_series = obs::GetSeries("mcond.condense.loss_s");
  obs::Series& loss_str_series = obs::GetSeries("mcond.condense.loss_str");
  obs::Series& loss_m_series = obs::GetSeries("mcond.condense.loss_m");
  obs::Gauge& round_gauge = obs::GetGauge("mcond.condense.round");
  const int pool_threads = ThreadPool::Global().NumThreads();
  obs::GetGauge("mcond.pool.threads").Set(static_cast<double>(pool_threads));
  MCOND_LOG(INFO) << "mcond: condensing " << n_orig << " nodes -> "
                  << num_synthetic << " synthetic (" << config.outer_rounds
                  << " rounds, learn_mapping=" << config.learn_mapping
                  << ", threads=" << pool_threads << ")";

  for (int64_t round = 0; round < config.outer_rounds; ++round) {
    obs::TraceSpan round_span("condense.round");
    round_gauge.Set(static_cast<double>(round));
    // Fresh relay initialization each round: θ₀ ~ P_θ₀ of Eq. (4).
    relay.ResetParameters(rng);

    // ---- Update the synthetic graph S (lines 6-11 of Algorithm 1). ----
    const Tensor mapping_now =
        mapping ? mapping->NormalizedTensor() : Tensor();
    for (int64_t t = 0; t < config.s_steps_per_round; ++t) {
      obs::TraceSpan s_span("condense.s_step");
      // One-step matching re-draws θ₀ for every step (DosCond).
      if (config.one_step_matching) relay.ResetParameters(rng);
      Variable a_syn = generator.Forward(x_syn);
      Variable a_hat = NormalizeDenseAdjacency(a_syn);
      Variable z_syn = PropagateDense(a_hat, x_syn, config.relay_depth);

      // ℒ_gra: constant 𝒢ᵀ vs differentiable 𝒢ˢ.
      std::vector<Tensor> grads_orig;
      {
        MCOND_TRACE_SPAN("condense.original_grads");
        grads_orig = relay.WeightGradientTensorsBlocked(z_labeled, labeled_y,
                                                        grad_blocks);
      }
      const std::vector<Variable> grads_syn =
          relay.WeightGradients(z_syn, synthetic_labels);
      Variable loss = GradientMatchingLoss(grads_orig, grads_syn);

      // ℒ_str (Eq. 8): reconstruct sampled original edges from the
      // mapped-back embeddings H̃ = M H'.
      if (config.use_structure_loss && config.learn_mapping &&
          config.lambda > 0.0f) {
        const EdgeBatch batch =
            source.SampleEdges(config.edge_batch, config.edge_batch, rng);
        if (batch.size() > 0) {
          Variable h_syn = relay.Logits(z_syn);
          Variable m_src =
              MakeConstant(GatherRows(mapping_now, batch.src));
          Variable m_dst =
              MakeConstant(GatherRows(mapping_now, batch.dst));
          Variable scores = ops::RowsDotRows(ops::MatMul(m_src, h_syn),
                                             ops::MatMul(m_dst, h_syn));
          Tensor targets(batch.size(), 1);
          for (int64_t i = 0; i < batch.size(); ++i) {
            targets.At(i, 0) = batch.target[static_cast<size_t>(i)];
          }
          Variable str_term =
              ops::Scale(ops::BceWithLogits(scores, targets), config.lambda);
          loss_str_series.Append(str_term->value().At(0, 0));
          loss = ops::Add(loss, str_term);
        }
      }

      opt_features.ZeroGrad();
      opt_generator.ZeroGrad();
      Backward(loss);
      opt_features.Step();
      opt_generator.Step();
      result.s_loss_history.push_back(loss->value().At(0, 0));
      loss_s_series.Append(result.s_loss_history.back());

      // Relay update on S (line 11): θ_{t+1} = optimizer(ℒ, f, S). Reuses
      // the propagated features from this step's forward pass — they are
      // one optimizer step stale, which avoids a second MLP_Φ forward per
      // step and does not change the dynamics measurably. One-step
      // matching never trains the relay during matching.
      if (!config.one_step_matching) {
        for (int64_t r = 0; r < config.relay_steps; ++r) {
          relay.TrainStep(z_syn->value(), synthetic_labels, opt_relay);
        }
      }
    }

    if (!config.learn_mapping) continue;

    // ---- Update the mapping M (lines 12-15 of Algorithm 1). ----
    // S and θ are frozen; precompute every constant of this round.
    obs::TraceSpan mapping_span("condense.mapping_update");
    const Tensor a_syn_now = generator.Forward(x_syn)->value();
    const Tensor a_hat_now =
        NormalizeDenseAdjacency(MakeConstant(a_syn_now))->value();
    Tensor z_syn_now = x_syn->value();
    for (int64_t l = 0; l < config.relay_depth; ++l) {
      z_syn_now = MatMul(a_hat_now, z_syn_now);
    }
    // Refine the relay on S so the embedding targets below are those of a
    // trained GNN, not a freshly re-initialized one.
    for (int64_t r = 0; r < config.relay_refinement_steps; ++r) {
      relay.TrainStep(z_syn_now, synthetic_labels, opt_relay);
    }
    const Tensor h_syn = relay.LogitsTensor(z_syn_now);     // H' (N'×C).
    const Tensor h_orig = relay.LogitsTensor(z_orig);       // H (N×C).
    Tensor h_sup_target;                                    // H_sup (n×C).
    if (config.use_inductive_loss) {
      h_sup_target = relay.LogitsTensor(z_sup_on_original);
    }
    const Variable h_syn_const = MakeConstant(h_syn);
    const Variable h_orig_const = MakeConstant(h_orig);
    const Variable a_syn_const = MakeConstant(a_syn_now);
    const Variable x_syn_const = MakeConstant(x_syn->value());
    const Variable x_sup_const = MakeConstant(support.features);

    for (int64_t t = 0; t < config.m_steps_per_round; ++t) {
      obs::TraceSpan m_span("condense.m_step");
      Variable m_norm = mapping->Normalized();

      // ℒ_tra (Eq. 10): H ≈ M H'.
      Variable loss = ops::Scale(
          ops::L21Norm(
              ops::Sub(h_orig_const, ops::MatMul(m_norm, h_syn_const))),
          1.0f / static_cast<float>(n_orig));

      // ℒ_ind (Eq. 12): support nodes propagated on S via aM must match
      // their original-graph embeddings.
      if (config.use_inductive_loss && n_sup > 0) {
        Variable links = ops::SpMM(support.links, m_norm);  // aM (n×N').
        Variable z_sup = PropagateBlockSupportRows(
            a_syn_const, links, support.inter, x_syn_const, x_sup_const,
            config.relay_depth);
        Variable h_sup_syn = relay.Logits(z_sup);
        Variable ind = ops::Scale(
            ops::L21Norm(
                ops::Sub(MakeConstant(h_sup_target), h_sup_syn)),
            1.0f / static_cast<float>(n_sup));
        loss = ops::Add(loss, ops::Scale(ind, config.beta));
      }

      opt_mapping->ZeroGrad();
      Backward(loss);
      opt_mapping->Step();
      result.m_loss_history.push_back(loss->value().At(0, 0));
      loss_m_series.Append(result.m_loss_history.back());
    }

    const float last_s = result.s_loss_history.empty()
                             ? 0.0f
                             : result.s_loss_history.back();
    const float last_m = result.m_loss_history.empty()
                             ? 0.0f
                             : result.m_loss_history.back();
    if (config.verbose) {
      MCOND_LOG(INFO) << "mcond round " << round << " L_S=" << last_s
                      << " L_M=" << last_m;
    } else {
      MCOND_VLOG(1) << "mcond round " << round << " L_S=" << last_s
                    << " L_M=" << last_m;
    }
  }

  // ---- Final artifacts + sparsification (line 16, Eq. 14). ----
  MCOND_TRACE_SPAN("condense.final_artifacts");
  result.synthetic_features = x_syn->value();
  result.dense_adjacency = generator.Forward(x_syn)->value();
  if (mapping) {
    result.dense_mapping = mapping->NormalizedTensor();
  }
  CsrMatrix adj = CsrMatrix::FromDense(result.dense_adjacency, 0.0f)
                      .Thresholded(config.mu);
  result.condensed.graph =
      Graph(std::move(adj), result.synthetic_features,
            result.synthetic_labels, num_classes);
  if (mapping) {
    const float delta = config.delta >= 0.0f
                            ? config.delta
                            : 2.0f / static_cast<float>(num_synthetic);
    result.condensed.mapping =
        CsrMatrix::FromDense(result.dense_mapping, 0.0f).Thresholded(delta);
  }
  return result;
}

}  // namespace

MCondResult RunMCondOnSource(const CondenseSource& source,
                             const HeldOutBatch& support,
                             int64_t num_synthetic, const MCondConfig& config,
                             uint64_t seed) {
  const obs::ProcessUsage usage_at_entry = obs::CurrentProcessUsage();
  MCondResult result;
  {
    // Every S- and M-step frees and reallocates the same temporaries above
    // glibc's 128 KiB mmap threshold: the N×N' mapping-sized tensors of the
    // Eq. 15 normalization and its backward and of ℒ_tra's gradient,
    // MLP_Φ's N'²×h hidden layer, and the n×N' aM blocks of ℒ_ind. Keep
    // their pages resident for the call instead of faulting them back in
    // on every step.
    std::optional<internal::ScopedHeapRetention> retain_freed_heap(
        std::in_place);
    result = RunAlgorithm1(source, support, num_synthetic, config, seed);
    MCOND_TRACE_SPAN("condense.heap_trim");
    retain_freed_heap.reset();
  }
  // Process-wide deltas, including the trim at the scope's exit: concurrent
  // condense calls each count the other's faults too.
  const obs::ProcessUsage usage_at_exit = obs::CurrentProcessUsage();
  obs::GetCounter("mcond.condense.minor_faults")
      .Increment(usage_at_exit.minor_faults - usage_at_entry.minor_faults);
  obs::GetCounter("mcond.condense.sys_us")
      .Increment(usage_at_exit.sys_us - usage_at_entry.sys_us);
  return result;
}

MCondResult RunMCond(const Graph& original, const HeldOutBatch& support,
                     int64_t num_synthetic, const MCondConfig& config,
                     uint64_t seed) {
  ResidentCondenseSource source(original);
  return RunMCondOnSource(source, support, num_synthetic, config, seed);
}

MCondResult RunMCondSharded(const ShardedGraph& original,
                            const HeldOutBatch& support,
                            int64_t num_synthetic, const MCondConfig& config,
                            uint64_t seed) {
  MCOND_CHECK(original.adjacency) << "sharded graph has no adjacency store";
  ShardedCondenseSource source(original,
                               original.adjacency->path() + ".scratch");
  return RunMCondOnSource(source, support, num_synthetic, config, seed);
}

}  // namespace mcond
