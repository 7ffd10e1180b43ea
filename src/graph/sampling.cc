#include "graph/sampling.h"

#include <algorithm>
#include <utility>

namespace mcond {

EdgeBatch SampleEdgeBatch(const CsrMatrix& adjacency, int64_t num_pos,
                          int64_t num_neg, Rng& rng) {
  MCOND_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const CsrView whole = adjacency.View();
  StatusOr<EdgeBatch> batch = SampleEdgeBatch(
      adjacency.row_ptr(), [&](int64_t) -> StatusOr<CsrView> { return whole; },
      num_pos, num_neg, rng);
  return std::move(batch).value();  // A resident row access cannot fail.
}

StatusOr<EdgeBatch> SampleEdgeBatch(
    const std::vector<int64_t>& row_ptr,
    const std::function<StatusOr<CsrView>(int64_t r)>& row, int64_t num_pos,
    int64_t num_neg, Rng& rng) {
  const int64_t n = static_cast<int64_t>(row_ptr.size()) - 1;
  const int64_t nnz = row_ptr.back();
  EdgeBatch batch;
  if (n == 0) return batch;

  // Positive samples: pick edge slots uniformly; CSR slot k belongs to the
  // row r with row_ptr[r] <= k < row_ptr[r+1].
  const int64_t actual_pos = std::min(num_pos, nnz);
  if (nnz > 0) {
    for (int64_t s = 0; s < actual_pos; ++s) {
      const int64_t k = (actual_pos == nnz) ? s : rng.RandInt(0, nnz - 1);
      const auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), k);
      const int64_t r = static_cast<int64_t>(it - row_ptr.begin()) - 1;
      StatusOr<CsrView> view = row(r);
      if (!view.ok()) return view.status();
      const CsrView& v = view.value();
      batch.src.push_back(r);
      batch.dst.push_back(
          v.col_idx[v.row_ptr[r - v.row_begin] +
                    (k - row_ptr[static_cast<size_t>(r)])]);
      batch.target.push_back(1.0f);
    }
  }

  // Negative samples: uniform pairs rejected against A. Our graphs are
  // sparse, so a handful of rejections suffices; cap attempts for safety on
  // adversarially dense inputs.
  int64_t produced = 0;
  int64_t attempts = 0;
  const int64_t max_attempts = 50 * std::max<int64_t>(num_neg, 1);
  while (produced < num_neg && attempts < max_attempts) {
    ++attempts;
    const int64_t i = rng.RandInt(0, n - 1);
    const int64_t j = rng.RandInt(0, n - 1);
    if (i == j) continue;
    StatusOr<CsrView> view = row(i);
    if (!view.ok()) return view.status();
    const CsrView& v = view.value();
    const int32_t* first = v.col_idx + v.row_ptr[i - v.row_begin];
    const int32_t* last = v.col_idx + v.row_ptr[i - v.row_begin + 1];
    if (std::binary_search(first, last, static_cast<int32_t>(j))) continue;
    batch.src.push_back(i);
    batch.dst.push_back(j);
    batch.target.push_back(0.0f);
    ++produced;
  }
  return batch;
}

}  // namespace mcond
