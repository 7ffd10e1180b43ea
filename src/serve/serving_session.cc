#include "serve/serving_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/parallel.h"
#include "graph/compose.h"
#include "graph/graph.h"
#include "obs/trace.h"

namespace mcond {

// ---------------------------------------------------------------------------
// Bit-exactness notes
//
// Every value this file produces must be memcmp-equal to what the
// from-scratch ComposeDeployment (ComposeBlockAdjacency +
// GraphOperators::FromAdjacency) computes, so the float expressions below
// deliberately replicate those in graph/graph.cc and core/csr_matrix.cc:
//
//  - RowSums accumulates each row in a double, in storage order, and casts
//    to float once at the end. A composed base row is its base entries
//    followed by the appended link entries, so the session caches the
//    double partial sum of the base entries and continues the same
//    accumulation with the batch contribution.
//  - SymNormalize: dinv = deg > 0f ? 1.0f/std::sqrt(deg) : 0f, and each
//    value is (v * dinv[row]) * dinv[col] (left-to-right).
//  - RowNormalize: inv = deg != 0f ? 1.0f/deg : 0f, value = v * inv. Its
//    entry-dropping corner (deg == 0 with stored entries) changes the
//    structure and is routed to FallbackCompose instead.
//  - CsrMatrix::Multiply accumulates acc[c] += av*bv in (ka asc, kb asc)
//    order from an exact 0.0f, then emits each row's touched columns in
//    ascending order. ConvertLinks reproduces exactly that.
//
// The build-time caches live in a shared, immutable SessionBase (see
// session_base.h) so replica pools pay them once; this file only reads them.
// ---------------------------------------------------------------------------

namespace {

/// Grain tuned like the kernels': roughly bytes moved per row.
int64_t RowGrain(int64_t nnz, int64_t rows) {
  return GrainFromCost(2 * (nnz / std::max<int64_t>(rows, 1) + 1));
}

template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

int64_t CsrStorageBytes(const CsrMatrix& m) {
  return VecBytes(m.row_ptr()) + VecBytes(m.col_idx()) + VecBytes(m.values());
}

}  // namespace

ServingSession::ServingSession(const Graph& base, GnnModel& model)
    : ServingSession(SessionBase::Build(base), model) {}

ServingSession::ServingSession(const CondensedGraph& condensed,
                               GnnModel& model)
    : ServingSession(SessionBase::Build(condensed), model) {}

ServingSession::ServingSession(std::shared_ptr<const SessionBase> base,
                               GnnModel& model)
    : base_(std::move(base)),
      model_(model),
      requests_(obs::GetCounter("mcond.serve.session_requests")),
      fallbacks_(obs::GetCounter("mcond.serve.session_fallbacks")),
      convert_hist_(obs::GetHistogram("mcond.serve.session_convert_us")),
      compose_hist_(obs::GetHistogram("mcond.serve.session_compose_us")),
      forward_hist_(obs::GetHistogram("mcond.serve.session_forward_us")),
      total_hist_(obs::GetHistogram("mcond.serve.session_total_us")) {
  MCOND_CHECK(base_ != nullptr);
  n_base_ = base_->n_base;
  feat_dim_ = base_->feat_dim;
  const size_t n = static_cast<size_t>(n_base_);
  changed_stamp_.assign(n, 0);
  changed_.reserve(n);
  extra_.resize(n);
  new_acc_loop_.resize(n);
  new_acc_noloop_.resize(n);
  new_dinv_gcn_.resize(n);
  new_inv_row_.resize(n);
  new_dinv_noloop_.resize(n);
  cursor_loop_.resize(n);
  cursor_noloop_.resize(n);
  if (base_->mapping != nullptr) {
    conv_acc_.assign(n, 0.0f);
    conv_stamp_.assign(n, 0);
  }
}

void ServingSession::EnsureBatchShape(int64_t n) {
  if (n == cur_n_) return;
  // The only allocating path once a shape is warm. Runs with no arena
  // installed, so these tensors live on the heap and persist.
  features_ = Tensor::Uninitialized(n_base_ + n, feat_dim_);
  const float* src = base_->base_graph.features().data();
  ParallelFor(
      0, n_base_, RowGrain(n_base_ * feat_dim_, n_base_),
      [&](int64_t r0, int64_t r1) {
        std::memcpy(features_.RowData(r0), src + r0 * feat_dim_,
                    static_cast<size_t>((r1 - r0) * feat_dim_) *
                        sizeof(float));
      },
      "serve.session.base_features");
  const size_t ns = static_cast<size_t>(n);
  b_dinv_gcn_.resize(ns);
  b_inv_row_.resize(ns);
  b_dinv_noloop_.resize(ns);
  conv_rp_.resize(ns + 1);
  cur_n_ = n;
}

void ServingSession::BumpEpoch() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps from 4B requests ago could collide
    std::fill(changed_stamp_.begin(), changed_stamp_.end(), 0u);
    epoch_ = 1;
  }
}

ServingSession::LinksView ServingSession::ConvertLinks(
    const CsrMatrix& links) {
  const CsrMatrix& m = *base_->mapping;
  const int64_t n = links.rows();
  conv_ci_.clear();
  conv_v_.clear();
  conv_rp_[0] = 0;
  for (int64_t i = 0; i < n; ++i) {
    ++conv_epoch_;
    if (conv_epoch_ == 0) {
      std::fill(conv_stamp_.begin(), conv_stamp_.end(), 0u);
      conv_epoch_ = 1;
    }
    conv_touched_.clear();
    for (int64_t ka = links.row_ptr()[static_cast<size_t>(i)];
         ka < links.row_ptr()[static_cast<size_t>(i) + 1]; ++ka) {
      const float av = links.values()[static_cast<size_t>(ka)];
      const int32_t mid = links.col_idx()[static_cast<size_t>(ka)];
      for (int64_t kb = m.row_ptr()[static_cast<size_t>(mid)];
           kb < m.row_ptr()[static_cast<size_t>(mid) + 1]; ++kb) {
        const int32_t c = m.col_idx()[static_cast<size_t>(kb)];
        if (conv_stamp_[static_cast<size_t>(c)] != conv_epoch_) {
          conv_stamp_[static_cast<size_t>(c)] = conv_epoch_;
          conv_acc_[static_cast<size_t>(c)] = 0.0f;  // exact fresh start
          conv_touched_.push_back(c);
        }
        conv_acc_[static_cast<size_t>(c)] +=
            av * m.values()[static_cast<size_t>(kb)];
      }
    }
    std::sort(conv_touched_.begin(), conv_touched_.end());
    for (const int32_t c : conv_touched_) {
      conv_ci_.push_back(c);
      conv_v_.push_back(conv_acc_[static_cast<size_t>(c)]);
    }
    conv_rp_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(conv_ci_.size());
  }
  return LinksView{conv_rp_.data(), conv_ci_.data(), conv_v_.data(),
                   static_cast<int64_t>(conv_ci_.size())};
}

bool ServingSession::ComputeDegrees(const LinksView& lv,
                                    const CsrMatrix* inter, int64_t n) {
  const SessionBase& sb = *base_;
  changed_.clear();
  // Pass 1: which base rows gain a link, and their updated exact degree
  // accumulators. Iterating batch rows in ascending order appends each
  // contribution in exactly the order RowSums would visit the composed
  // row's appended entries.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      const int32_t c = lv.col_idx[k];
      const size_t cs = static_cast<size_t>(c);
      if (changed_stamp_[cs] != epoch_) {
        changed_stamp_[cs] = epoch_;
        changed_.push_back(c);
        extra_[cs] = 0;
        new_acc_loop_[cs] = sb.deg_loop_acc[cs];
        new_acc_noloop_[cs] = sb.deg_noloop_acc[cs];
      }
      ++extra_[cs];
      const float v = lv.values[k];
      new_acc_loop_[cs] += v;
      new_acc_noloop_[cs] += v;
    }
  }
  for (const int32_t c : changed_) {
    const size_t cs = static_cast<size_t>(c);
    const float deg = static_cast<float>(new_acc_loop_[cs]);
    // A changed base row always has stored entries (its self-loop at
    // least), so degree 0 means RowNormalize would drop its entries.
    if (deg == 0.0f) return false;
    new_dinv_gcn_[cs] = deg > 0.0f ? 1.0f / std::sqrt(deg) : 0.0f;
    new_inv_row_[cs] = 1.0f / deg;
    const float deg_nl = static_cast<float>(new_acc_noloop_[cs]);
    new_dinv_noloop_[cs] = deg_nl > 0.0f ? 1.0f / std::sqrt(deg_nl) : 0.0f;
  }
  // Pass 2: batch-row degrees, accumulated in composed storage order —
  // link entries first, then the merged (inter, self-loop) tail.
  for (int64_t i = 0; i < n; ++i) {
    double acc_l = 0.0;
    double acc_nl = 0.0;
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      acc_l += lv.values[k];
      acc_nl += lv.values[k];
    }
    if (inter != nullptr) {
      bool saw_diag = false;
      for (int64_t k = inter->row_ptr()[static_cast<size_t>(i)];
           k < inter->row_ptr()[static_cast<size_t>(i) + 1]; ++k) {
        const int32_t j = inter->col_idx()[static_cast<size_t>(k)];
        if (!saw_diag && j > i) {
          acc_l += 1.0;  // implicit self-loop sorts before this entry
          saw_diag = true;
        }
        if (j == i) saw_diag = true;
        acc_l += inter->values()[static_cast<size_t>(k)];
        acc_nl += inter->values()[static_cast<size_t>(k)];
      }
      if (!saw_diag) acc_l += 1.0;
    } else {
      acc_l += 1.0;  // node-batch: the self-loop is the only tail entry
    }
    const float deg = static_cast<float>(acc_l);
    if (deg == 0.0f) return false;  // row has entries; RowNormalize drops
    const size_t is = static_cast<size_t>(i);
    b_dinv_gcn_[is] = deg > 0.0f ? 1.0f / std::sqrt(deg) : 0.0f;
    b_inv_row_[is] = 1.0f / deg;
    const float deg_nl = static_cast<float>(acc_nl);
    b_dinv_noloop_[is] = deg_nl > 0.0f ? 1.0f / std::sqrt(deg_nl) : 0.0f;
  }
  return true;
}

void ServingSession::BuildComposed(const LinksView& lv,
                                   const CsrMatrix* inter, int64_t n) {
  const SessionBase& sb = *base_;
  const int64_t total = n_base_ + n;
  const CsrMatrix& raw = sb.base_graph.adjacency();
  const CsrMatrix& base_loops = sb.base_loops;

  // Row extents. Batch loop-rows carry an extra self-loop entry unless the
  // inter row already stores its diagonal.
  gcn_rp_.resize(static_cast<size_t>(total) + 1);
  sym_rp_.resize(static_cast<size_t>(total) + 1);
  gcn_rp_[0] = 0;
  sym_rp_[0] = 0;
  for (int64_t r = 0; r < n_base_; ++r) {
    const size_t rs = static_cast<size_t>(r);
    const int64_t ext = changed_stamp_[rs] == epoch_ ? extra_[rs] : 0;
    gcn_rp_[rs + 1] = gcn_rp_[rs] + base_loops.RowNnz(r) + ext;
    sym_rp_[rs + 1] = sym_rp_[rs] + raw.RowNnz(r) + ext;
  }
  for (int64_t i = 0; i < n; ++i) {
    const size_t rs = static_cast<size_t>(n_base_ + i);
    const int64_t nl = lv.row_ptr[i + 1] - lv.row_ptr[i];
    int64_t tail_loop = 1;  // the self-loop
    int64_t tail_sym = 0;
    if (inter != nullptr) {
      tail_sym = inter->RowNnz(i);
      tail_loop = tail_sym + (inter->HasEntry(i, i) ? 0 : 1);
    }
    gcn_rp_[rs + 1] = gcn_rp_[rs] + nl + tail_loop;
    sym_rp_[rs + 1] = sym_rp_[rs] + nl + tail_sym;
  }
  const int64_t nnz_loop = gcn_rp_[static_cast<size_t>(total)];
  const int64_t nnz_sym = sym_rp_[static_cast<size_t>(total)];
  gcn_ci_.resize(static_cast<size_t>(nnz_loop));
  gcn_v_.resize(static_cast<size_t>(nnz_loop));
  row_v_.resize(static_cast<size_t>(nnz_loop));
  sym_ci_.resize(static_cast<size_t>(nnz_sym));
  sym_v_.resize(static_cast<size_t>(nnz_sym));

  // Base rows: copy structure + cached normalized values in parallel.
  // Changed rows get their values overwritten by the patch phases below.
  const float* gcn_base_v = sb.base_graph.normalized_adjacency().values().data();
  const float* row_base_v =
      sb.base_graph.row_normalized_adjacency().values().data();
  const float* sym_base_v = sb.sym_base.values().data();
  ParallelFor(
      0, n_base_, RowGrain(base_loops.Nnz() + raw.Nnz(), n_base_),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const size_t rs = static_cast<size_t>(r);
          const int64_t src = base_loops.row_ptr()[rs];
          const int64_t nb = base_loops.RowNnz(r);
          const int64_t dst = gcn_rp_[rs];
          std::memcpy(gcn_ci_.data() + dst, base_loops.col_idx().data() + src,
                      static_cast<size_t>(nb) * sizeof(int32_t));
          std::memcpy(gcn_v_.data() + dst, gcn_base_v + src,
                      static_cast<size_t>(nb) * sizeof(float));
          std::memcpy(row_v_.data() + dst, row_base_v + src,
                      static_cast<size_t>(nb) * sizeof(float));
          cursor_loop_[rs] = dst + nb;
          const int64_t src_nl = raw.row_ptr()[rs];
          const int64_t nb_nl = raw.RowNnz(r);
          const int64_t dst_nl = sym_rp_[rs];
          // copy_n, not memcpy: an edgeless base graph has null buffers
          // here, and memcpy from null is undefined even for zero bytes.
          std::copy_n(raw.col_idx().data() + src_nl, nb_nl,
                      sym_ci_.data() + dst_nl);
          std::copy_n(sym_base_v + src_nl, nb_nl, sym_v_.data() + dst_nl);
          cursor_noloop_[rs] = dst_nl + nb_nl;
        }
      },
      "serve.session.base_rows");

  // Appended linksᵀ entries: serial ascending-i scatter keeps appended
  // columns N+i ascending within each base row. Both endpoints of every
  // appended entry changed degree this request, so values use the fresh
  // normalizers.
  for (int64_t i = 0; i < n; ++i) {
    const int32_t col = static_cast<int32_t>(n_base_ + i);
    const float di_g = b_dinv_gcn_[static_cast<size_t>(i)];
    const float di_s = b_dinv_noloop_[static_cast<size_t>(i)];
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      const size_t cs = static_cast<size_t>(lv.col_idx[k]);
      const float v = lv.values[k];
      const int64_t pos = cursor_loop_[cs]++;
      gcn_ci_[static_cast<size_t>(pos)] = col;
      gcn_v_[static_cast<size_t>(pos)] = v * new_dinv_gcn_[cs] * di_g;
      row_v_[static_cast<size_t>(pos)] = v * new_inv_row_[cs];
      const int64_t pos_s = cursor_noloop_[cs]++;
      sym_ci_[static_cast<size_t>(pos_s)] = col;
      sym_v_[static_cast<size_t>(pos_s)] = v * new_dinv_noloop_[cs] * di_s;
    }
  }

  // Batch rows: links entries, then the merged (inter, self-loop) tail.
  ParallelFor(
      0, n, RowGrain(lv.nnz + (inter ? inter->Nnz() : 0) + n, n),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const size_t is = static_cast<size_t>(i);
          const float di_g = b_dinv_gcn_[is];
          const float di_r = b_inv_row_[is];
          const float di_s = b_dinv_noloop_[is];
          int64_t dst = gcn_rp_[static_cast<size_t>(n_base_ + i)];
          int64_t dst_s = sym_rp_[static_cast<size_t>(n_base_ + i)];
          for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
            const int32_t c = lv.col_idx[k];
            const size_t cs = static_cast<size_t>(c);
            const float v = lv.values[k];
            gcn_ci_[static_cast<size_t>(dst)] = c;
            gcn_v_[static_cast<size_t>(dst)] = v * di_g * new_dinv_gcn_[cs];
            row_v_[static_cast<size_t>(dst)] = v * di_r;
            ++dst;
            sym_ci_[static_cast<size_t>(dst_s)] = c;
            sym_v_[static_cast<size_t>(dst_s)] =
                v * di_s * new_dinv_noloop_[cs];
            ++dst_s;
          }
          auto emit_loop = [&](int32_t j, float v) {
            const float dj = b_dinv_gcn_[static_cast<size_t>(j)];
            gcn_ci_[static_cast<size_t>(dst)] =
                static_cast<int32_t>(n_base_ + j);
            gcn_v_[static_cast<size_t>(dst)] = v * di_g * dj;
            row_v_[static_cast<size_t>(dst)] = v * di_r;
            ++dst;
          };
          if (inter != nullptr) {
            bool saw_diag = false;
            for (int64_t k = inter->row_ptr()[is];
                 k < inter->row_ptr()[is + 1]; ++k) {
              const int32_t j = inter->col_idx()[static_cast<size_t>(k)];
              const float v = inter->values()[static_cast<size_t>(k)];
              if (!saw_diag && j > i) {
                emit_loop(static_cast<int32_t>(i), 1.0f);
                saw_diag = true;
              }
              if (j == i) saw_diag = true;
              emit_loop(j, v);
              sym_ci_[static_cast<size_t>(dst_s)] =
                  static_cast<int32_t>(n_base_ + j);
              sym_v_[static_cast<size_t>(dst_s)] =
                  v * di_s * b_dinv_noloop_[static_cast<size_t>(j)];
              ++dst_s;
            }
            if (!saw_diag) emit_loop(static_cast<int32_t>(i), 1.0f);
          } else {
            emit_loop(static_cast<int32_t>(i), 1.0f);
          }
        }
      },
      "serve.session.batch_rows");

  // Patch phase A: changed base rows — renormalize the base-block segment
  // with the fresh row normalizer (columns may be old or new).
  const int64_t changed_n = static_cast<int64_t>(changed_.size());
  const int64_t patch_grain = RowGrain(
      changed_n * (base_loops.Nnz() / std::max<int64_t>(n_base_, 1) + 1),
      std::max<int64_t>(changed_n, 1));
  ParallelFor(
      0, changed_n, patch_grain,
      [&](int64_t i0, int64_t i1) {
        for (int64_t idx = i0; idx < i1; ++idx) {
          const size_t rs = static_cast<size_t>(changed_[
              static_cast<size_t>(idx)]);
          const float dr_g = new_dinv_gcn_[rs];
          const float ir = new_inv_row_[rs];
          const int64_t src = base_loops.row_ptr()[rs];
          const int64_t dst = gcn_rp_[rs];
          const int64_t nb = base_loops.row_ptr()[rs + 1] - src;
          for (int64_t k = 0; k < nb; ++k) {
            const size_t cs = static_cast<size_t>(
                base_loops.col_idx()[static_cast<size_t>(src + k)]);
            const float dc = changed_stamp_[cs] == epoch_
                                 ? new_dinv_gcn_[cs]
                                 : sb.dinv_gcn[cs];
            const float v = base_loops.values()[static_cast<size_t>(src + k)];
            gcn_v_[static_cast<size_t>(dst + k)] = v * dr_g * dc;
            row_v_[static_cast<size_t>(dst + k)] = v * ir;
          }
          const float dr_s = new_dinv_noloop_[rs];
          const int64_t src_s = raw.row_ptr()[rs];
          const int64_t dst_s = sym_rp_[rs];
          const int64_t nb_s = raw.row_ptr()[rs + 1] - src_s;
          for (int64_t k = 0; k < nb_s; ++k) {
            const size_t cs = static_cast<size_t>(
                raw.col_idx()[static_cast<size_t>(src_s + k)]);
            const float dc = changed_stamp_[cs] == epoch_
                                 ? new_dinv_noloop_[cs]
                                 : sb.dinv_noloop[cs];
            sym_v_[static_cast<size_t>(dst_s + k)] =
                raw.values()[static_cast<size_t>(src_s + k)] * dr_s * dc;
          }
        }
      },
      "serve.session.patch_rows");

  // Patch phase B: changed *columns* in unchanged rows, via the CSC index.
  // Rows already rewritten in phase A are skipped, so writes stay disjoint.
  // row_norm values only depend on the row degree — no column phase.
  ParallelFor(
      0, changed_n, patch_grain,
      [&](int64_t i0, int64_t i1) {
        for (int64_t idx = i0; idx < i1; ++idx) {
          const size_t cs = static_cast<size_t>(changed_[
              static_cast<size_t>(idx)]);
          const float dc_g = new_dinv_gcn_[cs];
          for (int64_t t = sb.csc_loops.col_ptr[cs];
               t < sb.csc_loops.col_ptr[cs + 1]; ++t) {
            const size_t rs = static_cast<size_t>(
                sb.csc_loops.row[static_cast<size_t>(t)]);
            if (changed_stamp_[rs] == epoch_) continue;
            const int64_t k = sb.csc_loops.val_idx[static_cast<size_t>(t)];
            const int64_t pos =
                gcn_rp_[rs] + (k - base_loops.row_ptr()[rs]);
            gcn_v_[static_cast<size_t>(pos)] =
                base_loops.values()[static_cast<size_t>(k)] *
                sb.dinv_gcn[rs] * dc_g;
          }
          const float dc_s = new_dinv_noloop_[cs];
          for (int64_t t = sb.csc_noloop.col_ptr[cs];
               t < sb.csc_noloop.col_ptr[cs + 1]; ++t) {
            const size_t rs = static_cast<size_t>(
                sb.csc_noloop.row[static_cast<size_t>(t)]);
            if (changed_stamp_[rs] == epoch_) continue;
            const int64_t k = sb.csc_noloop.val_idx[static_cast<size_t>(t)];
            const int64_t pos =
                sym_rp_[rs] + (k - raw.row_ptr()[rs]);
            sym_v_[static_cast<size_t>(pos)] =
                raw.values()[static_cast<size_t>(k)] * sb.dinv_noloop[rs] *
                dc_s;
          }
        }
      },
      "serve.session.patch_cols");

  // row_norm shares the with-loop structure; copy (capacity-reusing) so
  // each matrix owns its arrays, then hand everything to ops_.
  row_rp_ = gcn_rp_;
  row_ci_ = gcn_ci_;
  ops_.gcn_norm = CsrMatrix::FromParts(total, total, std::move(gcn_rp_),
                                       std::move(gcn_ci_), std::move(gcn_v_),
                                       /*validate=*/false);
  ops_.row_norm = CsrMatrix::FromParts(total, total, std::move(row_rp_),
                                       std::move(row_ci_), std::move(row_v_),
                                       /*validate=*/false);
  ops_.sym_no_loop = CsrMatrix::FromParts(total, total, std::move(sym_rp_),
                                          std::move(sym_ci_),
                                          std::move(sym_v_),
                                          /*validate=*/false);
}

void ServingSession::FallbackCompose(const HeldOutBatch& batch,
                                     bool graph_batch, int64_t n) {
  ++fallback_serves_;
  fallbacks_.Increment();
  CsrMatrix owned_links;
  const CsrMatrix* links = &batch.links;
  if (base_->mapping != nullptr) {
    std::vector<int64_t> rp(conv_rp_.begin(), conv_rp_.begin() + n + 1);
    owned_links = CsrMatrix::FromParts(
        n, n_base_, std::move(rp), conv_ci_, conv_v_, /*validate=*/false);
    links = &owned_links;
  }
  CsrMatrix composed;
  if (graph_batch) {
    composed = ComposeBlockAdjacency(base_->base_graph.adjacency(), *links,
                                     batch.inter);
  } else {
    composed = ComposeBlockAdjacency(base_->base_graph.adjacency(), *links,
                                     CsrMatrix::FromTriplets(n, n, {}));
  }
  ops_ = GraphOperators::FromAdjacency(composed);
}

void ServingSession::StackBatchFeatures(const Tensor& batch_features) {
  const int64_t n = batch_features.rows();
  ParallelFor(
      0, n, RowGrain(n * feat_dim_, std::max<int64_t>(n, 1)),
      [&](int64_t i0, int64_t i1) {
        std::memcpy(features_.RowData(n_base_ + i0),
                    batch_features.RowData(i0),
                    static_cast<size_t>((i1 - i0) * feat_dim_) *
                        sizeof(float));
      },
      "serve.session.batch_features");
}

const Tensor& ServingSession::Serve(const HeldOutBatch& batch,
                                    bool graph_batch, Rng& rng) {
  obs::TraceSpan total_span("serve.session", /*always_time=*/true);
  const SessionBase& sb = *base_;
  const int64_t n = batch.size();
  MCOND_CHECK_GT(n, 0) << "cannot serve an empty batch";
  MCOND_CHECK_LE(n_base_ + n, std::numeric_limits<int32_t>::max());
  MCOND_CHECK_EQ(batch.features.cols(), feat_dim_);
  MCOND_CHECK_EQ(batch.links.rows(), n);
  if (sb.mapping != nullptr) {
    MCOND_CHECK_EQ(batch.links.cols(), sb.mapping->rows());
  } else {
    MCOND_CHECK_EQ(batch.links.cols(), n_base_);
  }
  const CsrMatrix* inter = nullptr;
  if (graph_batch) {
    MCOND_CHECK_EQ(batch.inter.rows(), n);
    MCOND_CHECK_EQ(batch.inter.cols(), n);
    inter = &batch.inter;
  }
  requests_.Increment();
  EnsureBatchShape(n);
  // Reclaim the CSR buffers the previous request moved into ops_.
  ops_.gcn_norm.TakeParts(&gcn_rp_, &gcn_ci_, &gcn_v_);
  ops_.row_norm.TakeParts(&row_rp_, &row_ci_, &row_v_);
  ops_.sym_no_loop.TakeParts(&sym_rp_, &sym_ci_, &sym_v_);
  BumpEpoch();
  arena_.Reset();

  int64_t links_nnz = 0;
  Tensor logits;  // arena-backed; contents copied out before the next Reset
  {
    internal::ScopedTensorArena arena_scope(&arena_);
    LinksView lv;
    {
      obs::TraceSpan span("serve.session.convert", /*always_time=*/true);
      if (sb.mapping != nullptr) {
        lv = ConvertLinks(batch.links);
      } else {
        lv = LinksView{batch.links.row_ptr().data(),
                       batch.links.col_idx().data(),
                       batch.links.values().data(), batch.links.Nnz()};
      }
      convert_hist_.Record(span.ElapsedMicros());
    }
    links_nnz = lv.nnz;
    {
      obs::TraceSpan span("serve.session.compose", /*always_time=*/true);
      bool exact = !sb.fallback_only && ComputeDegrees(lv, inter, n);
      if (exact) {
        BuildComposed(lv, inter, n);
      } else {
        FallbackCompose(batch, graph_batch, n);
      }
      compose_hist_.Record(span.ElapsedMicros());
    }
    StackBatchFeatures(batch.features);
    {
      obs::TraceSpan span("serve.session.forward", /*always_time=*/true);
      logits = model_.Predict(ops_, features_, rng);
      forward_hist_.Record(span.ElapsedMicros());
    }
  }
  // The paper's memory model over the RAW composed adjacency (before
  // normalization), as ComposeDeployment's `adjacency` would store it.
  const int64_t raw_nnz = sb.base_graph.adjacency().Nnz() + 2 * links_nnz +
                          (inter != nullptr ? inter->Nnz() : 0);
  composed_csr_bytes_ =
      raw_nnz * static_cast<int64_t>(sizeof(float) + sizeof(int32_t)) +
      (n_base_ + n + 1) * static_cast<int64_t>(sizeof(int64_t));
  memory_bytes_ = composed_csr_bytes_ +
                  features_.size() * static_cast<int64_t>(sizeof(float));

  if (out_logits_.rows() != n || out_logits_.cols() != logits.cols()) {
    out_logits_ = Tensor::Uninitialized(n, logits.cols());  // heap: no arena
  }
  std::memcpy(out_logits_.data(), logits.RowData(n_base_),
              static_cast<size_t>(n * logits.cols()) * sizeof(float));
  total_hist_.Record(total_span.ElapsedMicros());
  return out_logits_;
}

int64_t ServingSession::workspace_bytes() const {
  int64_t bytes =
      VecBytes(conv_acc_) + VecBytes(conv_stamp_) + VecBytes(conv_touched_) +
      VecBytes(conv_rp_) + VecBytes(conv_ci_) + VecBytes(conv_v_) +
      VecBytes(changed_stamp_) + VecBytes(changed_) + VecBytes(extra_) +
      VecBytes(new_acc_loop_) + VecBytes(new_acc_noloop_) +
      VecBytes(new_dinv_gcn_) + VecBytes(new_inv_row_) +
      VecBytes(new_dinv_noloop_) + VecBytes(b_dinv_gcn_) +
      VecBytes(b_inv_row_) + VecBytes(b_dinv_noloop_) + VecBytes(gcn_rp_) +
      VecBytes(row_rp_) + VecBytes(sym_rp_) + VecBytes(gcn_ci_) +
      VecBytes(row_ci_) + VecBytes(sym_ci_) + VecBytes(gcn_v_) +
      VecBytes(row_v_) + VecBytes(sym_v_) + VecBytes(cursor_loop_) +
      VecBytes(cursor_noloop_);
  // Composed CSR storage currently parked inside ops_ (the scratch vectors
  // above are empty right after a serve moved them there — no double count).
  bytes += CsrStorageBytes(ops_.gcn_norm) + CsrStorageBytes(ops_.row_norm) +
           CsrStorageBytes(ops_.sym_no_loop);
  bytes += (features_.size() + out_logits_.size()) *
           static_cast<int64_t>(sizeof(float));
  bytes += static_cast<int64_t>(arena_.bytes_reserved());
  return bytes;
}

}  // namespace mcond
