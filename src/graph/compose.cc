#include "graph/compose.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "obs/trace.h"

namespace mcond {

CsrView ComposeRows(const CsrView& base, const CsrMatrix& links_t,
                    const CsrMatrix& links, const CsrMatrix& inter,
                    int64_t row_begin, int64_t row_end,
                    std::vector<int64_t>* row_ptr,
                    std::vector<int32_t>* col_idx,
                    std::vector<float>* values) {
  const int64_t big_n = links.cols();
  const int64_t n = row_end - row_begin;
  // Row r's left block (columns as stored) and right block (columns + N).
  const auto blocks = [&](int64_t r) -> std::pair<CsrView, CsrView> {
    if (r < big_n) return {base.Rows(r, r + 1), links_t.View().Rows(r, r + 1)};
    const int64_t i = r - big_n;
    return {links.View().Rows(i, i + 1), inter.View().Rows(i, i + 1)};
  };
  std::vector<int64_t>& rp = *row_ptr;
  rp.resize(static_cast<size_t>(n) + 1);
  rp[0] = 0;
  for (int64_t r = 0; r < n; ++r) {
    const auto [left, right] = blocks(row_begin + r);
    rp[static_cast<size_t>(r) + 1] =
        rp[static_cast<size_t>(r)] + left.nnz + right.nnz;
  }
  const int64_t nnz = rp[static_cast<size_t>(n)];
  col_idx->resize(static_cast<size_t>(nnz));
  values->resize(static_cast<size_t>(nnz));
  int32_t* ci = col_idx->data();
  float* v = values->data();
  // No coordinate appears in two blocks and each block's columns ascend, so
  // the rows come out canonical with no sort.
  ParallelFor(
      0, n, GrainFromCost(2 * (nnz / std::max<int64_t>(n, 1) + 1)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const auto [left, right] = blocks(row_begin + r);
          int64_t dst = rp[static_cast<size_t>(r)];
          const int64_t lsrc = left.row_ptr[0];
          std::copy_n(left.col_idx + lsrc, left.nnz, ci + dst);
          std::copy_n(left.values + lsrc, left.nnz, v + dst);
          dst += left.nnz;
          for (int64_t k = right.row_ptr[0]; k < right.row_ptr[1]; ++k) {
            ci[dst] = static_cast<int32_t>(big_n + right.col_idx[k]);
            v[dst++] = right.values[k];
          }
        }
      },
      "graph.compose_rows");
  return {0, row_begin, row_end, nnz, rp.data(), ci, v};
}

CsrMatrix ComposeBlockAdjacency(const CsrMatrix& base, const CsrMatrix& links,
                                const CsrMatrix& inter) {
  MCOND_TRACE_SPAN("graph.compose_block_adjacency");
  MCOND_CHECK_EQ(base.rows(), base.cols());
  MCOND_CHECK_EQ(links.cols(), base.cols());
  MCOND_CHECK_EQ(inter.rows(), links.rows());
  MCOND_CHECK_EQ(inter.cols(), links.rows());
  const int64_t total = base.rows() + links.rows();
  MCOND_CHECK_LE(total, std::numeric_limits<int32_t>::max());
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  ComposeRows(base.View(), links.Transpose(), links, inter, 0, total,
              &row_ptr, &col_idx, &values);
  return CsrMatrix::FromParts(total, total, std::move(row_ptr),
                              std::move(col_idx), std::move(values),
                              /*validate=*/false);
}

Tensor ComposeFeatures(const Tensor& base_features,
                       const Tensor& incoming_features) {
  return ConcatRows(base_features, incoming_features);
}

}  // namespace mcond
