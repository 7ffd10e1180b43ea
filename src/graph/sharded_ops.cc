#include "graph/sharded_ops.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>

#include "core/segment_prefetcher.h"
#include "core/tensor_ops.h"
#include "graph/compose.h"
#include "obs/trace.h"

namespace mcond {

namespace {

/// The one streamed pass: pins the cursor's scheduled segments in order and
/// runs `fn` on each segment's view, stopping at the first error. The
/// cursor declares the schedule up front, so the prefetch worker maps and
/// faults in segment i+1 while `fn` works on segment i.
template <typename Fn>
Status ForEachSegment(SequentialCursor&& cursor, const Fn& fn) {
  while (cursor.remaining() > 0) {
    StatusOr<PinnedSegment> pin = cursor.Next();
    if (!pin.ok()) return pin.status();
    MCOND_RETURN_IF_ERROR(fn(pin.value().view()));
  }
  return Status::Ok();
}

/// y = a · x, one SpMM row-kernel call per segment.
Status SpMMAllSegments(const ShardedCsr& a, const Tensor& x, Tensor* y) {
  return ForEachSegment(SequentialCursor(a), [&](const CsrView& seg) {
    SpMM(seg, x, y->RowData(seg.row_begin), "graph.sharded_spmm");
    return Status::Ok();
  });
}

/// Appends every row of `rows` to `writer`, with `values` (indexed like
/// rows.values) in place of the view's own.
Status AppendRows(ShardedCsrWriter* writer, const CsrView& rows,
                  const float* values) {
  for (int64_t r = 0; r < rows.NumRows(); ++r) {
    const int64_t k = rows.row_ptr[r];
    MCOND_RETURN_IF_ERROR(writer->AppendRow(rows.col_idx + k, values + k,
                                            rows.row_ptr[r + 1] - k));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Tensor> ShardedPropagate(const ShardedCsr& a_hat, const Tensor& x,
                                  int64_t depth,
                                  const std::vector<int64_t>& keep) {
  if (a_hat.rows() != a_hat.cols() || a_hat.cols() != x.rows()) {
    return Status::InvalidArgument("sharded propagate: shape mismatch");
  }
  for (const int64_t r : keep) {
    if (r < 0 || r >= a_hat.rows()) {
      return Status::OutOfRange("sharded propagate: keep row out of range");
    }
  }
  MCOND_TRACE_SPAN("graph.sharded_propagate");
  if (depth <= 0) return keep.empty() ? x : GatherRows(x, keep);
  Tensor hold;
  const Tensor* src = &x;
  const int64_t full_hops = keep.empty() ? depth : depth - 1;
  for (int64_t hop = 0; hop < full_hops; ++hop) {
    Tensor y = Tensor::Uninitialized(a_hat.rows(), x.cols());
    MCOND_RETURN_IF_ERROR(SpMMAllSegments(a_hat, *src, &y));
    hold = std::move(y);
    src = &hold;
  }
  if (keep.empty()) return hold;

  // Final hop: only the kept rows are materialized. Row r of the output
  // depends on row r of Â alone, so each kept row is the SpMM row kernel on
  // that one row. Rows are visited sorted, so each segment is pinned once,
  // and the segment schedule is declared so the prefetcher works ahead even
  // when the kept set skips segments.
  std::vector<std::pair<int64_t, int64_t>> order;  // (row, out position)
  order.reserve(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    order.push_back({keep[i], static_cast<int64_t>(i)});
  }
  std::sort(order.begin(), order.end());
  std::vector<int64_t> schedule;
  for (const auto& [row, pos] : order) {
    const int64_t s = a_hat.SegmentForRow(row);
    if (schedule.empty() || schedule.back() != s) schedule.push_back(s);
  }
  Tensor out = Tensor::Uninitialized(static_cast<int64_t>(keep.size()),
                                     x.cols());
  size_t next = 0;
  MCOND_RETURN_IF_ERROR(ForEachSegment(
      SequentialCursor(a_hat, std::move(schedule)), [&](const CsrView& seg) {
        for (; next < order.size() && order[next].first < seg.row_end;
             ++next) {
          const auto [row, pos] = order[next];
          SpMM(seg.Rows(row, row + 1), *src, out.RowData(pos));
        }
        return Status::Ok();
      }));
  return out;
}

StatusOr<ShardedCsr> ShardedSymNormalize(const ShardedCsr& a,
                                         const std::string& out_path,
                                         const ShardOptions& options,
                                         int64_t mem_budget_bytes) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("sharded sym-normalize: non-square matrix");
  }
  MCOND_TRACE_SPAN("graph.sharded_sym_normalize");
  // Each pass rebuilds one segment's rows of Ã = A + I at a time.
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  const auto tilde = [&](const CsrView& seg) {
    return AddSelfLoopRows(seg, 1.0f, &row_ptr, &col_idx, &values);
  };

  // Pass 1: degrees of Ã.
  std::vector<float> deg(static_cast<size_t>(a.rows()));
  MCOND_RETURN_IF_ERROR(
      ForEachSegment(SequentialCursor(a), [&](const CsrView& seg) {
        RowSums(tilde(seg), deg.data() + seg.row_begin,
                "graph.sharded_row_sums");
        return Status::Ok();
      }));
  const std::vector<float> dinv_sqrt = InvSqrtDegrees(deg);

  // Pass 2: rescale Ã's rows and write them out.
  StatusOr<ShardedCsrWriter> writer =
      ShardedCsrWriter::Create(out_path, a.rows(), a.cols(), options);
  if (!writer.ok()) return writer.status();
  std::vector<float> scaled;
  MCOND_RETURN_IF_ERROR(
      ForEachSegment(SequentialCursor(a), [&](const CsrView& seg) {
        const CsrView rows = tilde(seg);
        scaled.resize(static_cast<size_t>(rows.nnz));
        SymNormalizeValues(rows, dinv_sqrt.data(), scaled.data());
        return AppendRows(&writer.value(), rows, scaled.data());
      }));
  MCOND_RETURN_IF_ERROR(writer.value().Finalize());
  return ShardedCsr::Open(out_path, mem_budget_bytes);
}

StatusOr<ShardedCsr> ShardedComposeBlockAdjacency(
    const ShardedCsr& base, const CsrMatrix& links, const CsrMatrix& inter,
    const std::string& out_path, const ShardOptions& options,
    int64_t mem_budget_bytes) {
  if (base.rows() != base.cols() || links.cols() != base.cols() ||
      inter.rows() != links.rows() || inter.cols() != links.rows()) {
    return Status::InvalidArgument("sharded compose: block shape mismatch");
  }
  MCOND_TRACE_SPAN("graph.sharded_compose_block_adjacency");
  const int64_t big_n = base.rows();
  const int64_t total = big_n + links.rows();
  if (total > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("sharded compose: graph too large");
  }
  const CsrMatrix links_t = links.Transpose();
  StatusOr<ShardedCsrWriter> writer =
      ShardedCsrWriter::Create(out_path, total, total, options);
  if (!writer.ok()) return writer.status();
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  // The base rows, one segment at a time, then the batch rows.
  MCOND_RETURN_IF_ERROR(
      ForEachSegment(SequentialCursor(base), [&](const CsrView& seg) {
        const CsrView rows =
            ComposeRows(seg, links_t, links, inter, seg.row_begin,
                        seg.row_end, &row_ptr, &col_idx, &values);
        return AppendRows(&writer.value(), rows, rows.values);
      }));
  const CsrView rows = ComposeRows(CsrView{}, links_t, links, inter, big_n,
                                   total, &row_ptr, &col_idx, &values);
  MCOND_RETURN_IF_ERROR(AppendRows(&writer.value(), rows, rows.values));
  MCOND_RETURN_IF_ERROR(writer.value().Finalize());
  return ShardedCsr::Open(out_path, mem_budget_bytes);
}

StatusOr<EdgeBatch> ShardedSampleEdgeBatch(const ShardedCsr& adjacency,
                                           int64_t num_pos, int64_t num_neg,
                                           Rng& rng) {
  if (adjacency.rows() != adjacency.cols()) {
    return Status::InvalidArgument("sharded edge sample: non-square matrix");
  }
  // Random access (RNG-driven segment order): plain Pin, no prefetch
  // schedule to declare, one segment pinned at a time. The LRU keeps the
  // hot segments mapped.
  PinnedSegment pin;
  return SampleEdgeBatch(
      adjacency.row_ptr(),
      [&](int64_t r) -> StatusOr<CsrView> {
        pin = PinnedSegment();
        StatusOr<PinnedSegment> p = adjacency.Pin(adjacency.SegmentForRow(r));
        if (!p.ok()) return p.status();
        pin = std::move(p).value();
        return pin.view();
      },
      num_pos, num_neg, rng);
}

StatusOr<ShardedGraph> ShardGraph(const Graph& g, const std::string& dir,
                                  const ShardOptions& options,
                                  int64_t mem_budget_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("shard graph: cannot create " + dir + ": " +
                            ec.message());
  }
  const std::string adj_path = dir + "/adjacency.mcss";
  const std::string norm_path = dir + "/normalized.mcss";
  MCOND_RETURN_IF_ERROR(ShardedCsr::Write(g.adjacency(), adj_path, options));
  MCOND_RETURN_IF_ERROR(
      ShardedCsr::Write(g.normalized_adjacency(), norm_path, options));
  StatusOr<ShardedCsr> adj = ShardedCsr::Open(adj_path, mem_budget_bytes);
  if (!adj.ok()) return adj.status();
  StatusOr<ShardedCsr> norm = ShardedCsr::Open(norm_path, mem_budget_bytes);
  if (!norm.ok()) return norm.status();
  ShardedGraph out;
  out.adjacency =
      std::make_shared<ShardedCsr>(std::move(adj).value());
  out.normalized =
      std::make_shared<ShardedCsr>(std::move(norm).value());
  out.features = g.features();
  out.labels = g.labels();
  out.num_classes = g.num_classes();
  return out;
}

}  // namespace mcond
