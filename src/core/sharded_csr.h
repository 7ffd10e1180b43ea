#ifndef MCOND_CORE_SHARDED_CSR_H_
#define MCOND_CORE_SHARDED_CSR_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/csr_matrix.h"
#include "core/status.h"

namespace mcond {

/// Knobs for splitting a CSR matrix into on-disk row-range segments.
struct ShardOptions {
  /// Flush the segment under construction once its payload (local row_ptr +
  /// col_idx + values) reaches this many bytes. A single row larger than the
  /// target still lands in one segment — rows are atomic, so a high-degree
  /// row produces one oversized segment rather than being split.
  int64_t target_segment_bytes = 8 << 20;
  /// Hard row-count cap per segment; 0 = unlimited. Tests use this to force
  /// an exact segment count on small graphs (e.g. rows/4 → 4 segments).
  int64_t max_rows_per_segment = 0;
};

namespace internal {
struct ShardedCsrState;
}  // namespace internal

class SegmentPrefetcher;

/// RAII pin of one segment: the mapping is guaranteed to stay resident (the
/// LRU never evicts a pinned segment) until this object is destroyed. Move-
/// only; the owning ShardedCsr must outlive every pin. Its view covers the
/// segment's row range with segment-local arrays (row_ptr[0] == 0), so the
/// row kernels that take a whole matrix's CsrMatrix::View() take it too.
class PinnedSegment {
 public:
  PinnedSegment() = default;
  PinnedSegment(PinnedSegment&& other) noexcept;
  PinnedSegment& operator=(PinnedSegment&& other) noexcept;
  PinnedSegment(const PinnedSegment&) = delete;
  PinnedSegment& operator=(const PinnedSegment&) = delete;
  ~PinnedSegment();

  const CsrView& view() const { return view_; }
  const int64_t* row_ptr() const { return view_.row_ptr; }
  const int32_t* col_idx() const { return view_.col_idx; }
  const float* values() const { return view_.values; }

 private:
  friend class ShardedCsr;
  friend struct internal::ShardedCsrState;
  PinnedSegment(internal::ShardedCsrState* state, CsrView view)
      : state_(state), view_(view) {}
  void Release();

  internal::ShardedCsrState* state_ = nullptr;
  CsrView view_;
};

/// Streams a CSR matrix to the single-file segment-store format row by row,
/// without ever holding more than one segment's payload in memory. Rows must
/// be appended in order 0..rows-1 with strictly ascending in-range columns.
///
/// File layout (little-endian, version 1):
///   [header: magic 'MCSS', version, rows, cols, nnz, num_segments,
///            page_size, table_offset]
///   [segment payloads, each page-aligned:
///            (nrows+1) i64 local row_ptr | nnz i32 col_idx | nnz f32 values]
///   [at table_offset: num_segments x {row_begin, row_end, nnz, file_offset,
///            byte_size} | (rows+1) i64 global row_ptr]
/// The global row_ptr stays resident after Open (8 bytes/row), so degree
/// queries and edge sampling never touch a segment.
class ShardedCsrWriter {
 public:
  /// Use Create(); a default-constructed writer (required by StatusOr) is
  /// inert and rejects every call.
  ShardedCsrWriter() = default;
  static StatusOr<ShardedCsrWriter> Create(const std::string& path,
                                           int64_t rows, int64_t cols,
                                           const ShardOptions& options = {});
  ShardedCsrWriter(ShardedCsrWriter&&) noexcept = default;
  ShardedCsrWriter& operator=(ShardedCsrWriter&&) noexcept = default;
  ~ShardedCsrWriter();

  /// Appends the next row. `nnz` may be 0 (cols/values ignored then).
  Status AppendRow(const int32_t* col_idx, const float* values, int64_t nnz);

  /// Flushes the final segment, writes the table + global row_ptr, and
  /// patches the header. Must be called after exactly `rows` AppendRow
  /// calls; no appends afterwards.
  Status Finalize();

  int64_t rows_appended() const { return next_row_; }

 private:
  struct SegmentMeta {
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t nnz = 0;
    int64_t file_offset = 0;
    int64_t byte_size = 0;
  };

  Status FlushSegment();

  std::string path_;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  ShardOptions options_;
  std::unique_ptr<std::ofstream> out_;
  int64_t next_row_ = 0;
  int64_t total_nnz_ = 0;
  int64_t write_offset_ = 0;
  bool finalized_ = false;
  // Segment under construction.
  int64_t seg_row_begin_ = 0;
  std::vector<int64_t> seg_row_ptr_{0};
  std::vector<int32_t> seg_col_idx_;
  std::vector<float> seg_values_;
  std::vector<SegmentMeta> table_;
  std::vector<int64_t> global_row_ptr_{0};
};

/// Out-of-core CSR matrix: contiguous row-range segments on disk, memory-
/// mapped on demand and evicted LRU so that at most `mem_budget_bytes` of
/// segment payload stays resident (0 = unbounded — the resident fallback
/// when the whole matrix fits). Pinned segments are never evicted; if every
/// mapped segment is pinned the budget is allowed to overshoot rather than
/// fail. Thread-safe: concurrent Pin/unpin from kernel threads is fine.
class ShardedCsr {
 public:
  struct Segment {
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t nnz = 0;
    int64_t nnz_begin = 0;  // global row_ptr[row_begin]
    int64_t file_offset = 0;
    int64_t byte_size = 0;
  };

  ShardedCsr() = default;
  ShardedCsr(ShardedCsr&&) noexcept = default;
  ShardedCsr& operator=(ShardedCsr&&) noexcept = default;

  /// Opens and validates a store written by ShardedCsrWriter. Returns
  /// InvalidArgument on corrupt headers/tables and NotFound on a missing
  /// file, never aborts.
  static StatusOr<ShardedCsr> Open(const std::string& path,
                                   int64_t mem_budget_bytes = 0);

  /// Convenience for tests and gates: segments an in-memory matrix to disk.
  static Status Write(const CsrMatrix& m, const std::string& path,
                      const ShardOptions& options = {});

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t Nnz() const { return nnz_; }
  int64_t NumSegments() const { return static_cast<int64_t>(segments_.size()); }
  const std::vector<Segment>& segments() const { return segments_; }
  const Segment& segment(int64_t i) const {
    return segments_[static_cast<size_t>(i)];
  }
  const std::string& path() const { return path_; }

  /// Global row pointers (resident). row_ptr()[r+1] - row_ptr()[r] is the
  /// degree of row r; no segment access needed.
  const std::vector<int64_t>& row_ptr() const { return global_row_ptr_; }
  int64_t RowNnz(int64_t r) const {
    return global_row_ptr_[static_cast<size_t>(r) + 1] -
           global_row_ptr_[static_cast<size_t>(r)];
  }

  /// Index of the segment containing row `r` / CSR slot `k`.
  int64_t SegmentForRow(int64_t r) const;
  int64_t SegmentForSlot(int64_t k) const;

  /// Maps (if needed) and pins the segment. The returned view's arrays stay
  /// valid until the PinnedSegment is destroyed.
  StatusOr<PinnedSegment> Pin(int64_t index) const;

  // --- Asynchronous prefetch ----------------------------------------------
  // A background worker (created lazily per store, depth =
  // PrefetchSegments()) pins and faults in hinted segments ahead of the
  // consumer. Purely a performance hint: results are bit-identical with
  // prefetch on or off, and a hinted segment that cannot be fetched within
  // the memory budget simply degrades to a synchronous Pin.

  /// Hints that the segments covering rows [row_begin, row_end) will be
  /// pinned next, in ascending order. Replaces any previous hint. No-op when
  /// the ambient prefetch depth is 0, the store is unopened, or the clamped
  /// range is empty.
  void PrefetchHint(int64_t row_begin, int64_t row_end) const;
  /// Same, with an explicit segment visit order. Orders containing an
  /// out-of-range index are ignored wholesale.
  void PrefetchHintSegments(std::vector<int64_t> order) const;
  /// Pin that first consults the prefetcher: a completed prefetch is handed
  /// over without touching the file, an in-flight one is waited for, and
  /// anything else falls back to a synchronous Pin. Exactly Pin() when no
  /// worker exists.
  StatusOr<PinnedSegment> PinPrefetched(int64_t index) const;
  /// Drops any outstanding hint and the worker's completed-but-unclaimed
  /// pins. Safe with no hint active.
  void CancelPrefetch() const;

  /// Bytes of segment payload currently mapped.
  int64_t ResidentBytes() const;
  /// Payload bytes of currently pinned segments (subset of ResidentBytes).
  /// The prefetcher's admission check keeps this within the budget.
  int64_t PinnedBytes() const;
  int64_t mem_budget_bytes() const { return mem_budget_bytes_; }
  /// Total on-disk payload bytes (the resident-CSR-equivalent footprint).
  int64_t StorageBytes() const;

 private:
  friend class SegmentPrefetcher;

  std::string path_;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t nnz_ = 0;
  int64_t mem_budget_bytes_ = 0;
  std::vector<Segment> segments_;
  std::vector<int64_t> global_row_ptr_;
  std::shared_ptr<internal::ShardedCsrState> state_;
};

}  // namespace mcond

#endif  // MCOND_CORE_SHARDED_CSR_H_
