#include "serve/serving_session.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "core/parallel.h"
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
//  - SymNormalize: dinv = InvSqrtDegree(deg), and each value is
//    (v * dinv[row]) * dinv[col] (left-to-right).
//  - RowNormalize: inv = InvDegree(deg), value = v * inv.
//    Both normalizers keep a zero-degree row's entries (scaled by 0), so the
//    composed structure never depends on the values and every request is
//    patched incrementally.
//  - CsrMatrix::Multiply accumulates acc[c] += av*bv in (ka asc, kb asc)
//    order from an exact 0.0f, then emits each row's touched columns in
//    ascending order, zero sums included. ConvertLinks reproduces exactly
//    that.
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

/// The GraphOperators member `kind` names (OperatorKind lists them in
/// member order).
CsrMatrix GraphOperators::*Member(OperatorKind kind) {
  static constexpr CsrMatrix GraphOperators::*kMembers[] = {
      &GraphOperators::gcn_norm, &GraphOperators::row_norm,
      &GraphOperators::sym_no_loop};
  return kMembers[static_cast<int>(kind)];
}

/// An entry of the composed operator: (v·dr)·dc, left to right, or v·dr.
float Entry(float v, float dr, float dc, bool symmetric) {
  return symmetric ? v * dr * dc : v * dr;
}

/// Visits batch row i's entries after its link columns, in composed storage
/// order: its inter-edges, with the self-loop merged in at its sorted
/// position when the operator has self-loops and the row stores no
/// diagonal of its own.
template <typename Fn>
void ForEachTail(const CsrMatrix* inter, int64_t i, bool self_loops,
                 Fn&& fn) {
  bool saw_diag = !self_loops;
  if (inter != nullptr) {
    for (int64_t k = inter->row_ptr()[static_cast<size_t>(i)];
         k < inter->row_ptr()[static_cast<size_t>(i) + 1]; ++k) {
      const int32_t j = inter->col_idx()[static_cast<size_t>(k)];
      if (!saw_diag && j >= i) {
        if (j > i) fn(static_cast<int32_t>(i), 1.0f);
        saw_diag = true;
      }
      fn(j, inter->values()[static_cast<size_t>(k)]);
    }
  }
  if (!saw_diag) fn(static_cast<int32_t>(i), 1.0f);
}

}  // namespace

ServingSession::ServingSession(const Graph& base, GnnModel& model)
    : ServingSession(SessionBase::Build(base, model.operator_kind()), model) {}

ServingSession::ServingSession(const CondensedGraph& condensed,
                               GnnModel& model)
    : ServingSession(SessionBase::Build(condensed, model.operator_kind()),
                     model) {}

ServingSession::ServingSession(std::shared_ptr<const SessionBase> base,
                               GnnModel& model)
    : base_(std::move(base)),
      model_(model),
      requests_(obs::GetCounter("mcond.serve.session_requests")),
      convert_hist_(obs::GetHistogram("mcond.serve.session_convert_us")),
      compose_hist_(obs::GetHistogram("mcond.serve.session_compose_us")),
      forward_hist_(obs::GetHistogram("mcond.serve.session_forward_us")),
      total_hist_(obs::GetHistogram("mcond.serve.session_total_us")) {
  MCOND_CHECK(base_ != nullptr);
  MCOND_CHECK(base_->kind == model_.operator_kind())
      << "the session base was built for another operator than the model "
         "reads";
  const size_t n = static_cast<size_t>(base_->n_base);
  changed_stamp_.assign(n, 0);
  changed_.reserve(n);
  extra_.resize(n);
  new_acc_.resize(n);
  new_norm_.resize(n);
  cursor_.resize(n);
  if (base_->mapping != nullptr) {
    conv_acc_.assign(n, 0.0f);
    conv_bits_.assign((n + 63) / 64, 0);
  }
}

void ServingSession::EnsureBatchShape(int64_t n) {
  if (n == cur_n_) return;
  // The only allocating path once a shape is warm. Runs with no arena
  // installed, so these tensors live on the heap and persist.
  const int64_t n_base = base_->n_base;
  const int64_t d = base_->feat_dim;
  features_ = Tensor::Uninitialized(n_base + n, d);
  const float* src = base_->base_graph.features().data();
  ParallelFor(
      0, n_base, RowGrain(n_base * d, n_base),
      [&](int64_t r0, int64_t r1) {
        std::memcpy(features_.RowData(r0), src + r0 * d,
                    static_cast<size_t>((r1 - r0) * d) * sizeof(float));
      },
      "serve.session.base_features");
  const size_t ns = static_cast<size_t>(n);
  b_norm_.resize(ns);
  conv_rp_.resize(ns + 1);
  cur_n_ = n;
}

ServingSession::LinksView ServingSession::ConvertLinks(
    const CsrMatrix& links) {
  const CsrMatrix& m = *base_->mapping;
  const int64_t n = links.rows();
  float* acc = conv_acc_.data();
  uint64_t* bits = conv_bits_.data();
  conv_ci_.clear();
  conv_v_.clear();
  conv_rp_[0] = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ka = links.row_ptr()[static_cast<size_t>(i)];
         ka < links.row_ptr()[static_cast<size_t>(i) + 1]; ++ka) {
      const float av = links.values()[static_cast<size_t>(ka)];
      const int32_t mid = links.col_idx()[static_cast<size_t>(ka)];
      for (int64_t kb = m.row_ptr()[static_cast<size_t>(mid)];
           kb < m.row_ptr()[static_cast<size_t>(mid) + 1]; ++kb) {
        const size_t c =
            static_cast<size_t>(m.col_idx()[static_cast<size_t>(kb)]);
        bits[c / 64] |= uint64_t{1} << (c % 64);
        acc[c] += av * m.values()[static_cast<size_t>(kb)];
      }
    }
    // Ascending emission of every touched column, zero sums included; each
    // emitted accumulator goes back to +0.0f for the next row.
    for (size_t w = 0; w < conv_bits_.size(); ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const size_t c = w * 64 + static_cast<size_t>(std::countr_zero(word));
        conv_ci_.push_back(static_cast<int32_t>(c));
        conv_v_.push_back(acc[c]);
        acc[c] = 0.0f;
      }
      bits[w] = 0;
    }
    conv_rp_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(conv_ci_.size());
  }
  return LinksView{conv_rp_.data(), conv_ci_.data(), conv_v_.data(),
                   static_cast<int64_t>(conv_ci_.size())};
}

void ServingSession::ComputeDegrees(const LinksView& lv,
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
        new_acc_[cs] = sb.deg_acc[cs];
      }
      ++extra_[cs];
      new_acc_[cs] += lv.values[k];
    }
  }
  for (const int32_t c : changed_) {
    const size_t cs = static_cast<size_t>(c);
    new_norm_[cs] = sb.Normalizer(static_cast<float>(new_acc_[cs]));
  }
  // Pass 2: batch-row degrees, accumulated in composed storage order —
  // link entries first, then the merged (inter, self-loop) tail.
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      acc += lv.values[k];
    }
    ForEachTail(inter, i, sb.self_loops,
                [&](int32_t, float v) { acc += v; });
    b_norm_[static_cast<size_t>(i)] = sb.Normalizer(static_cast<float>(acc));
  }
}

void ServingSession::BuildComposed(const LinksView& lv,
                                   const CsrMatrix* inter, int64_t n) {
  const SessionBase& sb = *base_;
  const CsrMatrix& s = sb.structure();
  const float* base_values = sb.base_values();
  const std::vector<float>& base_norm = sb.norm;
  const bool sym = sb.symmetric;
  const int64_t n_base = sb.n_base;
  const int64_t total = n_base + n;

  // Row extents. Batch rows of Ã carry an extra self-loop entry unless the
  // inter row already stores its diagonal.
  rp_.resize(static_cast<size_t>(total) + 1);
  rp_[0] = 0;
  for (int64_t r = 0; r < n_base; ++r) {
    const size_t rs = static_cast<size_t>(r);
    const int64_t ext = changed_stamp_[rs] == epoch_ ? extra_[rs] : 0;
    rp_[rs + 1] = rp_[rs] + s.RowNnz(r) + ext;
  }
  for (int64_t i = 0; i < n; ++i) {
    const size_t rs = static_cast<size_t>(n_base + i);
    const bool has_diag = inter != nullptr && inter->HasEntry(i, i);
    const int64_t tail = (inter != nullptr ? inter->RowNnz(i) : 0) +
                         (sb.self_loops && !has_diag ? 1 : 0);
    rp_[rs + 1] = rp_[rs] + (lv.row_ptr[i + 1] - lv.row_ptr[i]) + tail;
  }
  const size_t nnz = static_cast<size_t>(rp_[static_cast<size_t>(total)]);
  ci_.resize(nnz);
  v_.resize(nnz);

  // Base rows: copy structure + cached normalized values in parallel.
  // Changed rows get their values overwritten by the patch phases below.
  ParallelFor(
      0, n_base, RowGrain(s.Nnz(), n_base),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const size_t rs = static_cast<size_t>(r);
          const int64_t src = s.row_ptr()[rs];
          const int64_t nb = s.RowNnz(r);
          const int64_t dst = rp_[rs];
          // copy_n, not memcpy: an edgeless base graph has null buffers
          // here, and memcpy from null is undefined even for zero bytes.
          std::copy_n(s.col_idx().data() + src, nb, ci_.data() + dst);
          std::copy_n(base_values + src, nb, v_.data() + dst);
          cursor_[rs] = dst + nb;
        }
      },
      "serve.session.base_rows");

  // Appended linksᵀ entries: serial ascending-i scatter keeps appended
  // columns N+i ascending within each base row. Both endpoints of every
  // appended entry changed degree this request, so values use the fresh
  // normalizers.
  for (int64_t i = 0; i < n; ++i) {
    const int32_t col = static_cast<int32_t>(n_base + i);
    const float dc = b_norm_[static_cast<size_t>(i)];
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      const size_t cs = static_cast<size_t>(lv.col_idx[k]);
      const size_t pos = static_cast<size_t>(cursor_[cs]++);
      ci_[pos] = col;
      v_[pos] = Entry(lv.values[k], new_norm_[cs], dc, sym);
    }
  }

  // Batch rows: links entries, then the merged (inter, self-loop) tail.
  ParallelFor(
      0, n, RowGrain(lv.nnz + (inter ? inter->Nnz() : 0) + n, n),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float dr = b_norm_[static_cast<size_t>(i)];
          size_t dst =
              static_cast<size_t>(rp_[static_cast<size_t>(n_base + i)]);
          for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
            const int32_t c = lv.col_idx[k];
            ci_[dst] = c;
            v_[dst] = Entry(lv.values[k], dr,
                            new_norm_[static_cast<size_t>(c)], sym);
            ++dst;
          }
          ForEachTail(inter, i, sb.self_loops, [&](int32_t j, float v) {
            ci_[dst] = static_cast<int32_t>(n_base + j);
            v_[dst] = Entry(v, dr, b_norm_[static_cast<size_t>(j)], sym);
            ++dst;
          });
        }
      },
      "serve.session.batch_rows");

  // Patch phase A: changed base rows — renormalize the base-block segment
  // with the fresh row normalizer (columns may be old or new).
  const int64_t changed_n = static_cast<int64_t>(changed_.size());
  const int64_t patch_grain = RowGrain(
      changed_n * (s.Nnz() / std::max<int64_t>(n_base, 1) + 1),
      std::max<int64_t>(changed_n, 1));
  ParallelFor(
      0, changed_n, patch_grain,
      [&](int64_t i0, int64_t i1) {
        for (int64_t idx = i0; idx < i1; ++idx) {
          const size_t rs = static_cast<size_t>(changed_[
              static_cast<size_t>(idx)]);
          const float dr = new_norm_[rs];
          const int64_t src = s.row_ptr()[rs];
          const int64_t dst = rp_[rs];
          const int64_t nb = s.row_ptr()[rs + 1] - src;
          for (int64_t k = 0; k < nb; ++k) {
            const size_t cs = static_cast<size_t>(
                s.col_idx()[static_cast<size_t>(src + k)]);
            const float dc =
                changed_stamp_[cs] == epoch_ ? new_norm_[cs] : base_norm[cs];
            v_[static_cast<size_t>(dst + k)] = Entry(
                s.values()[static_cast<size_t>(src + k)], dr, dc, sym);
          }
        }
      },
      "serve.session.patch_rows");

  // Patch phase B: changed *columns* in unchanged rows, via the CSC index.
  // Rows already rewritten in phase A are skipped, so writes stay disjoint.
  // row_norm values only depend on the row degree — no column phase.
  if (sym) {
    const SessionBase::CscIndex& csc = sb.csc;
    ParallelFor(
        0, changed_n, patch_grain,
        [&](int64_t i0, int64_t i1) {
          for (int64_t idx = i0; idx < i1; ++idx) {
            const size_t cs = static_cast<size_t>(changed_[
                static_cast<size_t>(idx)]);
            const float dc = new_norm_[cs];
            for (int64_t t = csc.col_ptr[cs]; t < csc.col_ptr[cs + 1]; ++t) {
              const size_t rs =
                  static_cast<size_t>(csc.row[static_cast<size_t>(t)]);
              if (changed_stamp_[rs] == epoch_) continue;
              const int64_t k = csc.val_idx[static_cast<size_t>(t)];
              const int64_t pos = rp_[rs] + (k - s.row_ptr()[rs]);
              v_[static_cast<size_t>(pos)] =
                  s.values()[static_cast<size_t>(k)] * base_norm[rs] * dc;
            }
          }
        },
        "serve.session.patch_cols");
  }

  ops_.*Member(sb.kind) =
      CsrMatrix::FromParts(total, total, std::move(rp_), std::move(ci_),
                           std::move(v_), /*validate=*/false);
}

void ServingSession::StackBatchFeatures(const Tensor& batch_features) {
  const int64_t n = batch_features.rows();
  const int64_t d = base_->feat_dim;
  ParallelFor(
      0, n, RowGrain(n * d, std::max<int64_t>(n, 1)),
      [&](int64_t i0, int64_t i1) {
        std::memcpy(features_.RowData(base_->n_base + i0),
                    batch_features.RowData(i0),
                    static_cast<size_t>((i1 - i0) * d) * sizeof(float));
      },
      "serve.session.batch_features");
}

const Tensor& ServingSession::Serve(const HeldOutBatch& batch,
                                    bool graph_batch, Rng& rng) {
  obs::TraceSpan total_span("serve.session", /*always_time=*/true);
  const SessionBase& sb = *base_;
  const int64_t n = batch.size();
  MCOND_CHECK_GT(n, 0) << "cannot serve an empty batch";
  MCOND_CHECK_LE(sb.n_base + n, std::numeric_limits<int32_t>::max());
  MCOND_CHECK_EQ(batch.features.cols(), sb.feat_dim);
  MCOND_CHECK_EQ(batch.links.rows(), n);
  if (sb.mapping != nullptr) {
    MCOND_CHECK_EQ(batch.links.cols(), sb.mapping->rows());
  } else {
    MCOND_CHECK_EQ(batch.links.cols(), sb.n_base);
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
  (ops_.*Member(sb.kind)).TakeParts(&rp_, &ci_, &v_);
  if (++epoch_ == 0) {  // wrapped: stamps from 4B requests ago could collide
    std::fill(changed_stamp_.begin(), changed_stamp_.end(), 0u);
    epoch_ = 1;
  }
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
      ComputeDegrees(lv, inter, n);
      BuildComposed(lv, inter, n);
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
      (sb.n_base + n + 1) * static_cast<int64_t>(sizeof(int64_t));
  memory_bytes_ = composed_csr_bytes_ +
                  features_.size() * static_cast<int64_t>(sizeof(float));

  if (out_logits_.rows() != n || out_logits_.cols() != logits.cols()) {
    out_logits_ = Tensor::Uninitialized(n, logits.cols());  // heap: no arena
  }
  std::memcpy(out_logits_.data(), logits.RowData(sb.n_base),
              static_cast<size_t>(n * logits.cols()) * sizeof(float));
  total_hist_.Record(total_span.ElapsedMicros());
  return out_logits_;
}

int64_t ServingSession::workspace_bytes() const {
  int64_t bytes =
      VecBytes(conv_acc_) + VecBytes(conv_bits_) + VecBytes(conv_rp_) +
      VecBytes(conv_ci_) + VecBytes(conv_v_) + VecBytes(changed_stamp_) +
      VecBytes(changed_) + VecBytes(extra_) + VecBytes(new_acc_) +
      VecBytes(new_norm_) + VecBytes(b_norm_) + VecBytes(rp_) +
      VecBytes(ci_) + VecBytes(v_) + VecBytes(cursor_);
  // Composed CSR storage currently parked inside ops_ (the scratch vectors
  // above are empty right after a serve moved them there — no double count).
  bytes += CsrStorageBytes(ops_.*Member(base_->kind));
  bytes += (features_.size() + out_logits_.size()) *
           static_cast<int64_t>(sizeof(float));
  bytes += static_cast<int64_t>(arena_.bytes_reserved());
  return bytes;
}

}  // namespace mcond
