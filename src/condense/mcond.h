#ifndef MCOND_CONDENSE_MCOND_H_
#define MCOND_CONDENSE_MCOND_H_

#include <cstdint>
#include <vector>

#include "condense/condensed.h"
#include "condense/mapping.h"
#include "graph/inductive.h"

namespace mcond {

/// Hyper-parameters of the alternating optimization (Algorithm 1). Defaults
/// follow the paper where it states values (mapping lr 0.1, ε=1e-5,
/// 2-layer relay) and the grid-searched region it reports elsewhere
/// (λ ∈ [0.01, 0.1], β ≈ 100).
struct MCondConfig {
  // Alternating schedule: K outer rounds, T steps per component per round.
  // The mapping gets fewer steps per round than the synthetic graph: its
  // targets (relay embeddings) change every round, and long M phases let
  // target noise erode the class-aware structure the serving path relies
  // on (see DESIGN.md §4).
  int64_t outer_rounds = 12;
  int64_t s_steps_per_round = 10;
  int64_t m_steps_per_round = 5;
  /// Extra relay training on S before each mapping phase. The mapping
  /// losses (Eq. 10/12) compare *relay embeddings*; a relay that has only
  /// seen a few steps since its per-round re-initialization produces
  /// near-random targets, which degrades M instead of training it. The
  /// paper's much longer per-round schedules leave θ_t well-trained by the
  /// time M updates; this refinement reproduces that state cheaply.
  int64_t relay_refinement_steps = 60;

  // Learning rates (η₁ for X', η₂ for Φ). The paper uses 0.1 for M over
  // thousands of mapping steps; at this library's scaled-down schedules
  // (tens of steps per run) 0.1 is noise-dominated and erodes the
  // class-aware initialization, so the default is 0.01 — see DESIGN.md §3.
  float lr_features = 0.01f;
  float lr_adjacency = 0.01f;
  float lr_mapping = 0.01f;
  float lr_relay = 0.01f;

  // Loss weights.
  float lambda = 0.05f;  // ℒ_str weight in Eq. (9).
  float beta = 100.0f;   // ℒ_ind weight in Eq. (13).

  // Sparsification thresholds (Eq. 14). Row normalization (Eq. 15) puts
  // mapping entries on the ~1/N' scale, so a useful δ must scale with the
  // synthetic size: a negative value (the default) selects 2/N' — twice
  // the uniform row weight — which suppresses the spread-out noise mass
  // while keeping the concentrated same-class weights at every N'.
  // bench_fig6_sparsification sweeps absolute δ values around this point.
  float mu = 0.05f;      // synthetic adjacency A'.
  float delta = -1.0f;   // mapping M; < 0 means adaptive 2/N'.

  // Structure-loss mini-batch: this many positive and this many negative
  // pairs per step (Eq. 8).
  int64_t edge_batch = 256;

  MappingConfig mapping;

  // Ablation switches (Table V / Fig. 5).
  bool use_structure_loss = true;   // "w/o ℒ_str" when false.
  bool use_inductive_loss = true;   // "w/o ℒ_ind" when false.
  bool learn_mapping = true;        // false reproduces plain GCond.
  bool class_aware_init = true;     // random init when false (Fig. 5c).

  bool verbose = false;
};

/// Everything MCond produces, including dense pre-sparsification artifacts
/// so ablation benches (Fig. 6 threshold sweeps) can re-threshold without
/// re-training.
struct MCondResult {
  CondensedGraph condensed;
  /// Learned synthetic features X' (also inside condensed.graph).
  Tensor synthetic_features;
  std::vector<int64_t> synthetic_labels;
  /// Dense A' before the μ threshold.
  Tensor dense_adjacency;
  /// Normalized dense M before the δ threshold (empty if !learn_mapping).
  Tensor dense_mapping;
  /// ℒ_S per synthetic step and ℒ_M per mapping step (Fig. 5c uses the
  /// latter).
  std::vector<float> s_loss_history;
  std::vector<float> m_loss_history;

  /// Rebuilds the condensed artifact at different thresholds (Fig. 6).
  CondensedGraph Sparsify(float mu, float delta) const;
};

class CondenseSource;
struct ShardedGraph;

/// Runs Algorithm 1 on `original` (the training graph T), using `support`
/// (the validation batch, labels unused) for the inductive constraint.
/// Deterministic in `seed`.
MCondResult RunMCond(const Graph& original, const HeldOutBatch& support,
                     int64_t num_synthetic, const MCondConfig& config,
                     uint64_t seed);

/// The same algorithm against any CondenseSource (condense_source.h) — the
/// shared implementation RunMCond and RunMCondSharded both call. On the same
/// graph the resident and sharded sources produce bit-identical results at
/// every thread count and memory budget.
MCondResult RunMCondOnSource(const CondenseSource& source,
                             const HeldOutBatch& support,
                             int64_t num_synthetic, const MCondConfig& config,
                             uint64_t seed);

/// Out-of-core entry point: the original graph streams from its segment
/// stores under their memory budget; scratch stores for the composed
/// support operators live next to the adjacency store. Dense state is
/// limited to the synthetic graph, one class block of propagated features,
/// and (only if config.learn_mapping) the N×N' mapping plus full Â^L X.
MCondResult RunMCondSharded(const ShardedGraph& original,
                            const HeldOutBatch& support,
                            int64_t num_synthetic, const MCondConfig& config,
                            uint64_t seed);

}  // namespace mcond

#endif  // MCOND_CONDENSE_MCOND_H_
