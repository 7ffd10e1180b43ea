#include "serve/session_base.h"

#include "core/logging.h"
#include "obs/trace.h"

namespace mcond {

namespace {

template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

int64_t CsrBytes(const CsrMatrix& m) {
  return VecBytes(m.row_ptr()) + VecBytes(m.col_idx()) + VecBytes(m.values());
}

}  // namespace

SessionBase::SessionBase(const Graph& g, OperatorKind k)
    : base_graph(g),
      kind(k),
      self_loops(k != OperatorKind::kSymNoLoop),
      symmetric(k != OperatorKind::kRowNorm) {}

std::shared_ptr<const SessionBase> SessionBase::Build(const Graph& base,
                                                      OperatorKind kind) {
  std::shared_ptr<SessionBase> sb(new SessionBase(base, kind));
  sb->BuildCaches();
  return sb;
}

std::shared_ptr<const SessionBase> SessionBase::Build(
    const CondensedGraph& condensed, OperatorKind kind) {
  std::shared_ptr<SessionBase> sb(new SessionBase(condensed.graph, kind));
  sb->mapping = &condensed.mapping;
  MCOND_CHECK_GT(sb->mapping->Nnz(), 0)
      << "condensed artifact has no mapping; cannot build a serving session";
  MCOND_CHECK_EQ(sb->mapping->cols(), condensed.graph.NumNodes());
  sb->BuildCaches();
  return sb;
}

void SessionBase::BuildCaches() {
  MCOND_TRACE_SPAN("serve.session.build");
  const CsrMatrix& raw = base_graph.adjacency();
  n_base = raw.rows();
  feat_dim = base_graph.FeatureDim();

  // The normalized base block comes from graph.h's own normalizers, so it
  // holds the bits GraphOperators::FromAdjacency computes for the base.
  switch (kind) {
    case OperatorKind::kGcnNorm:
      loops = AddSelfLoops(raw);
      break;
    case OperatorKind::kRowNorm:
      loops = AddSelfLoops(raw);
      normalized = RowNormalize(loops);
      break;
    case OperatorKind::kSymNoLoop:
      normalized = SymNormalize(raw, /*add_self_loops=*/false);
      break;
  }
  // Serving reads the cached block through structure()'s row_ptr, so a
  // block laid out differently would be read out of place (or past its end).
  // For gcn_norm the Graph's SymNormalize(A) and Ã come from the same
  // deterministic AddSelfLoops.
  const CsrMatrix& s = structure();
  MCOND_CHECK(normalized_block().row_ptr() == s.row_ptr())
      << "cached normalized base block is not indexed like its structure";

  const size_t n = static_cast<size_t>(n_base);
  deg_acc.resize(n);
  norm.resize(n);
  for (int64_t r = 0; r < n_base; ++r) {
    double acc = 0.0;
    for (int64_t k = s.row_ptr()[static_cast<size_t>(r)];
         k < s.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      acc += s.values()[static_cast<size_t>(k)];
    }
    deg_acc[static_cast<size_t>(r)] = acc;
    norm[static_cast<size_t>(r)] = Normalizer(static_cast<float>(acc));
  }

  if (symmetric) BuildCsc(s, &csc);
}

void SessionBase::BuildCsc(const CsrMatrix& m, CscIndex* out) {
  const int64_t cols = m.cols();
  const int64_t nnz = m.Nnz();
  out->col_ptr.assign(static_cast<size_t>(cols) + 1, 0);
  for (const int32_t c : m.col_idx()) {
    ++out->col_ptr[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 1; c < out->col_ptr.size(); ++c) {
    out->col_ptr[c] += out->col_ptr[c - 1];
  }
  out->row.resize(static_cast<size_t>(nnz));
  out->val_idx.resize(static_cast<size_t>(nnz));
  std::vector<int64_t> cursor(out->col_ptr.begin(), out->col_ptr.end() - 1);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[static_cast<size_t>(r)];
         k < m.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int32_t c = m.col_idx()[static_cast<size_t>(k)];
      const int64_t pos = cursor[static_cast<size_t>(c)]++;
      out->row[static_cast<size_t>(pos)] = static_cast<int32_t>(r);
      out->val_idx[static_cast<size_t>(pos)] = k;
    }
  }
}

int64_t SessionBase::memory_bytes() const {
  return CsrBytes(loops) + CsrBytes(normalized) + VecBytes(deg_acc) +
         VecBytes(norm) + VecBytes(csc.col_ptr) + VecBytes(csc.row) +
         VecBytes(csc.val_idx);
}

}  // namespace mcond
