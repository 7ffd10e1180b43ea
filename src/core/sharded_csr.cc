#include "core/sharded_csr.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>

#include "core/segment_prefetcher.h"
#include "core/sharded_csr_state.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace mcond {

namespace {

constexpr uint32_t kShardMagic = 0x5353434dU;  // 'MCSS'
constexpr uint32_t kShardVersion = 1;
constexpr int64_t kPageSize = 4096;

// Header: magic, version, rows, cols, nnz, num_segments, page_size,
// table_offset (patched by Finalize).
constexpr int64_t kHeaderBytes =
    static_cast<int64_t>(2 * sizeof(uint32_t) + 6 * sizeof(int64_t));

int64_t PayloadBytes(int64_t nrows, int64_t nnz) {
  return (nrows + 1) * static_cast<int64_t>(sizeof(int64_t)) +
         nnz * static_cast<int64_t>(sizeof(int32_t) + sizeof(float));
}

int64_t AlignUp(int64_t v, int64_t a) { return (v + a - 1) / a * a; }

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

}  // namespace

namespace internal {

ShardedCsrState::~ShardedCsrState() {
  // The prefetch worker pins through this state: stop it (and release its
  // ready pins) before tearing the mappings down.
  prefetcher.reset();
  for (Mapped& m : mapped) {
    if (m.addr != nullptr) ::munmap(m.addr, m.map_len);
  }
  if (fd >= 0) ::close(fd);
}

void ShardedCsrState::CollectEvictionsLocked(EvictedMappings* evicted) {
  if (mem_budget_bytes <= 0) return;
  while (resident_bytes > mem_budget_bytes) {
    int64_t victim = -1;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < mapped.size(); ++i) {
      const Mapped& m = mapped[i];
      if (m.addr != nullptr && m.pin_count == 0 && m.last_use < oldest) {
        oldest = m.last_use;
        victim = static_cast<int64_t>(i);
      }
    }
    if (victim < 0) break;  // Everything resident is pinned: overshoot.
    Mapped& m = mapped[static_cast<size_t>(victim)];
    evicted->emplace_back(m.addr, m.map_len);
    resident_bytes -= payload_bytes[static_cast<size_t>(victim)];
    m.addr = nullptr;
    m.map_len = 0;
    obs::GetCounter("mcond.shard.evictions").Increment();
    obs::GetGauge("mcond.shard.resident_bytes")
        .Set(static_cast<double>(resident_bytes));
  }
}

void ShardedCsrState::ReleaseMappings(EvictedMappings* evicted) {
  for (const auto& [addr, len] : *evicted) {
    // Tell the kernel the pages are dead before unmapping so reclaim happens
    // now rather than whenever the unmap's deferred accounting runs.
    ::madvise(addr, len, MADV_DONTNEED);
    ::munmap(addr, len);
  }
  evicted->clear();
}

StatusOr<PinnedSegment> ShardedCsrState::PinSegment(int64_t index) {
  const ShardedCsr::Segment& seg = segments[static_cast<size_t>(index)];
  EvictedMappings evicted;
  CsrView view;
  {
    std::lock_guard<std::mutex> lock(mu);
    Mapped& m = mapped[static_cast<size_t>(index)];
    if (m.addr == nullptr) {
      // mmap beyond EOF "succeeds" and SIGBUSes on first touch — if the file
      // shrank since Open (truncated underneath us), fail here with a Status
      // instead of crashing inside a kernel loop.
      struct stat fs;
      if (::fstat(fd, &fs) != 0 ||
          static_cast<int64_t>(fs.st_size) < seg.file_offset + seg.byte_size) {
        return Status::Internal(
            "sharded csr: segment " + std::to_string(index) +
            " extends past end of file (store truncated after open?)");
      }
      void* addr = ::mmap(nullptr, static_cast<size_t>(seg.byte_size),
                          PROT_READ, MAP_SHARED, fd, seg.file_offset);
      if (addr == MAP_FAILED) {
        return Status::Internal("sharded csr: mmap failed for segment " +
                                std::to_string(index) + ": " +
                                std::strerror(errno));
      }
      ::madvise(addr, static_cast<size_t>(seg.byte_size), MADV_WILLNEED);
      m.addr = addr;
      m.map_len = static_cast<size_t>(seg.byte_size);
      resident_bytes += seg.byte_size;
      obs::GetCounter("mcond.shard.mmaps").Increment();
      obs::GetCounter("mcond.shard.io_bytes").Increment(seg.byte_size);
      obs::GetGauge("mcond.shard.resident_bytes")
          .Set(static_cast<double>(resident_bytes));
    }
    if (m.pin_count == 0) {
      pinned_bytes.fetch_add(seg.byte_size, std::memory_order_relaxed);
    }
    ++m.pin_count;
    m.last_use = ++use_tick;
    CollectEvictionsLocked(&evicted);
    obs::GetCounter("mcond.shard.pins").Increment();

    view.index = index;
    view.row_begin = seg.row_begin;
    view.row_end = seg.row_end;
    view.nnz = seg.nnz;
    const char* base = static_cast<const char*>(m.addr);
    view.row_ptr = reinterpret_cast<const int64_t*>(base);
    const int64_t nrows = seg.row_end - seg.row_begin;
    view.col_idx = reinterpret_cast<const int32_t*>(
        base + (nrows + 1) * static_cast<int64_t>(sizeof(int64_t)));
    view.values = reinterpret_cast<const float*>(
        base + (nrows + 1) * static_cast<int64_t>(sizeof(int64_t)) +
        seg.nnz * static_cast<int64_t>(sizeof(int32_t)));
  }
  ReleaseMappings(&evicted);
  return PinnedSegment(this, view);
}

void ShardedCsrState::Unpin(int64_t index) {
  EvictedMappings evicted;
  {
    std::lock_guard<std::mutex> lock(mu);
    Mapped& m = mapped[static_cast<size_t>(index)];
    if (--m.pin_count == 0) {
      pinned_bytes.fetch_sub(payload_bytes[static_cast<size_t>(index)],
                             std::memory_order_relaxed);
    }
    CollectEvictionsLocked(&evicted);
  }
  ReleaseMappings(&evicted);
}

}  // namespace internal

// ---------------------------------------------------------------------------
// PinnedSegment
// ---------------------------------------------------------------------------

PinnedSegment::PinnedSegment(PinnedSegment&& other) noexcept
    : state_(other.state_), view_(other.view_) {
  other.state_ = nullptr;
}

PinnedSegment& PinnedSegment::operator=(PinnedSegment&& other) noexcept {
  if (this != &other) {
    Release();
    state_ = other.state_;
    view_ = other.view_;
    other.state_ = nullptr;
  }
  return *this;
}

PinnedSegment::~PinnedSegment() { Release(); }

void PinnedSegment::Release() {
  if (state_ == nullptr) return;
  internal::ShardedCsrState* st = state_;
  state_ = nullptr;
  st->Unpin(view_.index);
}

// ---------------------------------------------------------------------------
// ShardedCsrWriter
// ---------------------------------------------------------------------------

StatusOr<ShardedCsrWriter> ShardedCsrWriter::Create(
    const std::string& path, int64_t rows, int64_t cols,
    const ShardOptions& options) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("sharded csr: negative dimensions");
  }
  if (options.target_segment_bytes <= 0) {
    return Status::InvalidArgument("sharded csr: target_segment_bytes <= 0");
  }
  ShardedCsrWriter w;
  w.path_ = path;
  w.rows_ = rows;
  w.cols_ = cols;
  w.options_ = options;
  w.out_ = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::trunc);
  if (!*w.out_) {
    return Status::NotFound("sharded csr: cannot open for write: " + path);
  }
  // Placeholder header; Finalize seeks back and writes the real one.
  std::vector<char> zeros(static_cast<size_t>(kHeaderBytes), 0);
  w.out_->write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  w.write_offset_ = kHeaderBytes;
  w.global_row_ptr_.reserve(static_cast<size_t>(rows) + 1);
  return w;
}

ShardedCsrWriter::~ShardedCsrWriter() = default;

Status ShardedCsrWriter::AppendRow(const int32_t* col_idx, const float* values,
                                   int64_t nnz) {
  if (!out_ || finalized_) {
    return Status::FailedPrecondition(
        "sharded csr: append on an unopened or finalized writer");
  }
  if (next_row_ >= rows_) {
    return Status::OutOfRange("sharded csr: more rows appended than declared");
  }
  for (int64_t k = 0; k < nnz; ++k) {
    const int32_t c = col_idx[k];
    if (c < 0 || c >= cols_) {
      return Status::InvalidArgument("sharded csr: column out of range");
    }
    if (k > 0 && col_idx[k - 1] >= c) {
      return Status::InvalidArgument(
          "sharded csr: columns must be strictly ascending within a row");
    }
  }
  // Start a fresh segment if this row would push the current one past the
  // byte target (unless the segment is empty — a jumbo row still goes in
  // whole) or past the row cap.
  const int64_t seg_rows =
      static_cast<int64_t>(seg_row_ptr_.size()) - 1;
  const int64_t projected =
      PayloadBytes(seg_rows + 1, seg_row_ptr_.back() + nnz);
  const bool over_bytes =
      seg_rows > 0 && projected > options_.target_segment_bytes;
  const bool over_rows = options_.max_rows_per_segment > 0 &&
                         seg_rows >= options_.max_rows_per_segment;
  if (over_bytes || over_rows) {
    MCOND_RETURN_IF_ERROR(FlushSegment());
  }
  seg_col_idx_.insert(seg_col_idx_.end(), col_idx, col_idx + nnz);
  seg_values_.insert(seg_values_.end(), values, values + nnz);
  seg_row_ptr_.push_back(seg_row_ptr_.back() + nnz);
  total_nnz_ += nnz;
  global_row_ptr_.push_back(total_nnz_);
  ++next_row_;
  return Status::Ok();
}

Status ShardedCsrWriter::FlushSegment() {
  const int64_t seg_rows = static_cast<int64_t>(seg_row_ptr_.size()) - 1;
  if (seg_rows == 0) return Status::Ok();
  const int64_t aligned = AlignUp(write_offset_, kPageSize);
  if (aligned > write_offset_) {
    std::vector<char> pad(static_cast<size_t>(aligned - write_offset_), 0);
    out_->write(pad.data(), static_cast<std::streamsize>(pad.size()));
  }
  SegmentMeta meta;
  meta.row_begin = seg_row_begin_;
  meta.row_end = seg_row_begin_ + seg_rows;
  meta.nnz = seg_row_ptr_.back();
  meta.file_offset = aligned;
  meta.byte_size = PayloadBytes(seg_rows, meta.nnz);
  out_->write(reinterpret_cast<const char*>(seg_row_ptr_.data()),
              static_cast<std::streamsize>(seg_row_ptr_.size() *
                                           sizeof(int64_t)));
  out_->write(reinterpret_cast<const char*>(seg_col_idx_.data()),
              static_cast<std::streamsize>(seg_col_idx_.size() *
                                           sizeof(int32_t)));
  out_->write(reinterpret_cast<const char*>(seg_values_.data()),
              static_cast<std::streamsize>(seg_values_.size() *
                                           sizeof(float)));
  if (!out_->good()) {
    return Status::Internal("sharded csr: segment write failed: " + path_);
  }
  write_offset_ = aligned + meta.byte_size;
  table_.push_back(meta);
  seg_row_begin_ = meta.row_end;
  seg_row_ptr_.assign(1, 0);
  seg_col_idx_.clear();
  seg_values_.clear();
  return Status::Ok();
}

Status ShardedCsrWriter::Finalize() {
  if (!out_ || finalized_) {
    return Status::FailedPrecondition(
        "sharded csr: Finalize on an unopened or finalized writer");
  }
  if (next_row_ != rows_) {
    return Status::FailedPrecondition(
        "sharded csr: Finalize before all rows appended");
  }
  MCOND_RETURN_IF_ERROR(FlushSegment());
  const int64_t table_offset = write_offset_;
  for (const SegmentMeta& m : table_) {
    WritePod(*out_, m.row_begin);
    WritePod(*out_, m.row_end);
    WritePod(*out_, m.nnz);
    WritePod(*out_, m.file_offset);
    WritePod(*out_, m.byte_size);
  }
  out_->write(reinterpret_cast<const char*>(global_row_ptr_.data()),
              static_cast<std::streamsize>(global_row_ptr_.size() *
                                           sizeof(int64_t)));
  out_->seekp(0);
  WritePod(*out_, kShardMagic);
  WritePod(*out_, kShardVersion);
  WritePod(*out_, rows_);
  WritePod(*out_, cols_);
  WritePod(*out_, total_nnz_);
  WritePod(*out_, static_cast<int64_t>(table_.size()));
  WritePod(*out_, kPageSize);
  WritePod(*out_, table_offset);
  out_->flush();
  if (!out_->good()) {
    return Status::Internal("sharded csr: finalize write failed: " + path_);
  }
  out_->close();
  finalized_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ShardedCsr
// ---------------------------------------------------------------------------

Status ShardedCsr::Write(const CsrMatrix& m, const std::string& path,
                         const ShardOptions& options) {
  StatusOr<ShardedCsrWriter> writer =
      ShardedCsrWriter::Create(path, m.rows(), m.cols(), options);
  if (!writer.ok()) return writer.status();
  for (int64_t r = 0; r < m.rows(); ++r) {
    const int64_t begin = m.row_ptr()[static_cast<size_t>(r)];
    MCOND_RETURN_IF_ERROR(writer.value().AppendRow(
        m.col_idx().data() + begin, m.values().data() + begin, m.RowNnz(r)));
  }
  return writer.value().Finalize();
}

StatusOr<ShardedCsr> ShardedCsr::Open(const std::string& path,
                                      int64_t mem_budget_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("sharded csr: cannot open: " + path);
  in.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(in.tellg());
  in.seekg(0);

  uint32_t magic = 0, version = 0;
  int64_t rows = 0, cols = 0, nnz = 0, num_segments = 0, page_size = 0,
          table_offset = 0;
  if (!ReadPod(in, &magic) || !ReadPod(in, &version) || !ReadPod(in, &rows) ||
      !ReadPod(in, &cols) || !ReadPod(in, &nnz) ||
      !ReadPod(in, &num_segments) || !ReadPod(in, &page_size) ||
      !ReadPod(in, &table_offset)) {
    return Status::InvalidArgument("sharded csr: truncated header: " + path);
  }
  if (magic != kShardMagic) {
    return Status::InvalidArgument("sharded csr: bad magic: " + path);
  }
  if (version != kShardVersion) {
    return Status::InvalidArgument("sharded csr: unsupported version");
  }
  if (rows < 0 || cols < 0 || nnz < 0 || num_segments < 0 ||
      page_size <= 0 || table_offset < kHeaderBytes ||
      num_segments > rows + 1 || rows > (int64_t{1} << 40) ||
      cols > (int64_t{1} << 40) || nnz > (int64_t{1} << 44)) {
    return Status::InvalidArgument("sharded csr: implausible header: " + path);
  }
  const int64_t table_bytes =
      num_segments * 5 * static_cast<int64_t>(sizeof(int64_t));
  const int64_t row_ptr_bytes =
      (rows + 1) * static_cast<int64_t>(sizeof(int64_t));
  if (table_offset + table_bytes + row_ptr_bytes > file_size) {
    return Status::InvalidArgument("sharded csr: truncated table: " + path);
  }

  ShardedCsr s;
  s.path_ = path;
  s.rows_ = rows;
  s.cols_ = cols;
  s.nnz_ = nnz;
  s.mem_budget_bytes_ = mem_budget_bytes;
  s.segments_.resize(static_cast<size_t>(num_segments));
  in.seekg(table_offset);
  for (Segment& seg : s.segments_) {
    if (!ReadPod(in, &seg.row_begin) || !ReadPod(in, &seg.row_end) ||
        !ReadPod(in, &seg.nnz) || !ReadPod(in, &seg.file_offset) ||
        !ReadPod(in, &seg.byte_size)) {
      return Status::InvalidArgument("sharded csr: truncated table: " + path);
    }
  }
  s.global_row_ptr_.resize(static_cast<size_t>(rows) + 1);
  in.read(reinterpret_cast<char*>(s.global_row_ptr_.data()),
          static_cast<std::streamsize>(row_ptr_bytes));
  if (!in.good()) {
    return Status::InvalidArgument("sharded csr: truncated row_ptr: " + path);
  }

  // Structural validation: row ranges must tile [0, rows), the global
  // row_ptr must be a monotone prefix-sum ending at nnz, and every segment
  // payload must be page-aligned and inside the file. After this, Pin can
  // only fail on genuine mmap errors.
  if (s.global_row_ptr_.front() != 0 || s.global_row_ptr_.back() != nnz) {
    return Status::InvalidArgument("sharded csr: corrupt row_ptr: " + path);
  }
  for (size_t r = 1; r < s.global_row_ptr_.size(); ++r) {
    if (s.global_row_ptr_[r] < s.global_row_ptr_[r - 1]) {
      return Status::InvalidArgument(
          "sharded csr: non-monotone row_ptr: " + path);
    }
  }
  int64_t expect_row = 0;
  for (size_t i = 0; i < s.segments_.size(); ++i) {
    Segment& seg = s.segments_[i];
    if (seg.row_begin != expect_row || seg.row_end <= seg.row_begin ||
        seg.row_end > rows) {
      return Status::InvalidArgument(
          "sharded csr: segment row ranges do not tile the matrix: " + path);
    }
    seg.nnz_begin = s.global_row_ptr_[static_cast<size_t>(seg.row_begin)];
    const int64_t want_nnz =
        s.global_row_ptr_[static_cast<size_t>(seg.row_end)] - seg.nnz_begin;
    if (seg.nnz != want_nnz ||
        seg.byte_size !=
            PayloadBytes(seg.row_end - seg.row_begin, seg.nnz)) {
      return Status::InvalidArgument(
          "sharded csr: segment nnz inconsistent with row_ptr: " + path);
    }
    if (seg.file_offset % page_size != 0 || seg.file_offset < kHeaderBytes ||
        seg.file_offset + seg.byte_size > file_size) {
      return Status::InvalidArgument(
          "sharded csr: segment payload misaligned or outside file: " + path);
    }
    expect_row = seg.row_end;
  }
  // The writer puts every row (empty ones included) in some segment, so a
  // non-empty matrix must be fully tiled; only a 0-row matrix has none.
  if (expect_row != rows) {
    return Status::InvalidArgument(
        "sharded csr: segments do not cover all rows: " + path);
  }

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("sharded csr: open() failed: " + path + ": " +
                            std::strerror(errno));
  }
  s.state_ = std::make_shared<internal::ShardedCsrState>();
  s.state_->fd = fd;
  s.state_->mem_budget_bytes = mem_budget_bytes;
  s.state_->segments = s.segments_;
  s.state_->mapped.resize(s.segments_.size());
  s.state_->payload_bytes.reserve(s.segments_.size());
  for (const Segment& seg : s.segments_) {
    s.state_->payload_bytes.push_back(seg.byte_size);
  }
  obs::GetGauge("mcond.shard.segments")
      .Set(static_cast<double>(s.segments_.size()));
  return s;
}

int64_t ShardedCsr::SegmentForRow(int64_t r) const {
  MCOND_CHECK(r >= 0 && r < rows_);
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), r,
      [](int64_t row, const Segment& s) { return row < s.row_end; });
  MCOND_CHECK(it != segments_.end());
  return static_cast<int64_t>(it - segments_.begin());
}

StatusOr<PinnedSegment> ShardedCsr::Pin(int64_t index) const {
  if (index < 0 || index >= NumSegments()) {
    return Status::OutOfRange("sharded csr: segment index out of range");
  }
  return state_->PinSegment(index);
}

void ShardedCsr::PrefetchHintSegments(std::vector<int64_t> order) const {
  if (!state_ || order.empty()) return;
  for (int64_t i : order) {
    if (i < 0 || i >= NumSegments()) return;
  }
  const int64_t depth = PrefetchSegments();
  if (depth <= 0) return;
  SegmentPrefetcher* p = state_->EnsurePrefetcher(depth);
  if (p != nullptr) p->Hint(std::move(order));
}

StatusOr<PinnedSegment> ShardedCsr::PinPrefetched(int64_t index) const {
  if (index < 0 || index >= NumSegments()) {
    return Status::OutOfRange("sharded csr: segment index out of range");
  }
  SegmentPrefetcher* p = state_->prefetcher_or_null();
  if (p == nullptr) return state_->PinSegment(index);
  return p->AcquireOrPin(index);
}

void ShardedCsr::CancelPrefetch() const {
  if (!state_) return;
  SegmentPrefetcher* p = state_->prefetcher_or_null();
  if (p != nullptr) p->Cancel();
}

int64_t ShardedCsr::ResidentBytes() const {
  if (!state_) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->resident_bytes;
}

int64_t ShardedCsr::PinnedBytes() const {
  if (!state_) return 0;
  return state_->pinned_bytes.load(std::memory_order_relaxed);
}

int64_t ShardedCsr::StorageBytes() const {
  int64_t total = 0;
  for (const Segment& s : segments_) total += s.byte_size;
  return total + static_cast<int64_t>(global_row_ptr_.size() *
                                      sizeof(int64_t));
}

}  // namespace mcond
