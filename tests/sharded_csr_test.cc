#include "core/sharded_csr.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/csr_matrix.h"
#include "core/rng.h"
#include "core/segment_prefetcher.h"
#include "scratch_path.h"

namespace mcond {
namespace {

CsrMatrix RandomCsr(int64_t rows, int64_t cols, int64_t nnz_per_row,
                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < nnz_per_row; ++k) {
      triplets.push_back(
          {r, rng.RandInt(0, cols - 1), rng.Uniform(0.1f, 1.0f)});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

/// Reassembles the full CSR arrays from a sharded store via Pin, comparing
/// bit-for-bit with the source matrix.
void ExpectStoreEqualsMatrix(const ShardedCsr& sharded, const CsrMatrix& m) {
  ASSERT_EQ(sharded.rows(), m.rows());
  ASSERT_EQ(sharded.cols(), m.cols());
  ASSERT_EQ(sharded.Nnz(), m.Nnz());
  ASSERT_EQ(sharded.row_ptr(), m.row_ptr());
  int64_t covered = 0;
  for (int64_t s = 0; s < sharded.NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = sharded.Pin(s);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const CsrView& view = pin.value().view();
    ASSERT_EQ(view.row_begin, covered);
    covered = view.row_end;
    EXPECT_EQ(view.row_ptr[0], 0);
    const int64_t base = m.row_ptr()[static_cast<size_t>(view.row_begin)];
    for (int64_t r = view.row_begin; r < view.row_end; ++r) {
      EXPECT_EQ(base + view.row_ptr[r - view.row_begin + 1],
                m.row_ptr()[static_cast<size_t>(r) + 1]);
    }
    for (int64_t k = 0; k < view.nnz; ++k) {
      EXPECT_EQ(view.col_idx[k], m.col_idx()[static_cast<size_t>(base + k)]);
      EXPECT_EQ(view.values[k], m.values()[static_cast<size_t>(base + k)]);
    }
  }
  EXPECT_EQ(covered, sharded.rows());
}

TEST(ShardedCsrTest, RoundTripMultiSegment) {
  const CsrMatrix m = RandomCsr(64, 64, 6, 11);
  const std::string path = ScratchPath("sharded_roundtrip.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 16;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().NumSegments(), 4);
  ExpectStoreEqualsMatrix(sharded.value(), m);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, EmptySegmentsRoundTrip) {
  // Rows 2..5 are empty; with 2-row segments the middle segments hold no
  // entries at all and must still pin and report a zeroed local row_ptr.
  std::vector<Triplet> triplets = {{0, 1, 1.0f}, {1, 0, 2.0f}, {7, 3, 3.0f}};
  const CsrMatrix m = CsrMatrix::FromTriplets(8, 8, triplets);
  const std::string path = ScratchPath("sharded_empty_seg.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 2;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().NumSegments(), 4);
  StatusOr<PinnedSegment> middle = sharded.value().Pin(1);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(middle.value().view().nnz, 0);
  EXPECT_EQ(middle.value().view().NumRows(), 2);
  EXPECT_EQ(middle.value().row_ptr()[0], 0);
  EXPECT_EQ(middle.value().row_ptr()[2], 0);
  ExpectStoreEqualsMatrix(sharded.value(), m);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, SingleRowSegments) {
  const CsrMatrix m = RandomCsr(7, 7, 3, 13);
  const std::string path = ScratchPath("sharded_single_row.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 1;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().NumSegments(), 7);
  for (int64_t r = 0; r < 7; ++r) {
    EXPECT_EQ(sharded.value().SegmentForRow(r), r);
  }
  ExpectStoreEqualsMatrix(sharded.value(), m);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, HighDegreeRowStaysInOneSegment) {
  // Row 5 alone is far larger than the byte target: rows are atomic, so it
  // must land whole in one (oversized) segment instead of being split.
  std::vector<Triplet> triplets;
  for (int64_t r = 0; r < 10; ++r) {
    if (r == 5) {
      for (int64_t c = 0; c < 1000; ++c) triplets.push_back({r, c, 1.0f});
    } else {
      triplets.push_back({r, r, 1.0f});
    }
  }
  const CsrMatrix m = CsrMatrix::FromTriplets(10, 1000, triplets);
  const std::string path = ScratchPath("sharded_jumbo_row.mcss");
  ShardOptions options;
  options.target_segment_bytes = 256;  // Far below row 5's ~12KB payload.
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_GT(sharded.value().NumSegments(), 1);
  const int64_t jumbo = sharded.value().SegmentForRow(5);
  EXPECT_EQ(sharded.value().segment(jumbo).nnz, 1000);
  ExpectStoreEqualsMatrix(sharded.value(), m);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, BudgetEvictsUnpinnedSegments) {
  const CsrMatrix m = RandomCsr(64, 64, 6, 17);
  const std::string path = ScratchPath("sharded_evict.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 16;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  // Budget of one byte: only the pinned segment may stay mapped.
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path, /*mem_budget*/ 1);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  int64_t max_resident_after_release = 0;
  for (int64_t s = 0; s < sharded.value().NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = sharded.value().Pin(s);
    ASSERT_TRUE(pin.ok());
    EXPECT_GE(sharded.value().ResidentBytes(),
              sharded.value().segment(s).byte_size);
  }
  // All pins released: everything over budget must have been evicted on
  // the next pin; after the loop at most the last segment lingers.
  max_resident_after_release = sharded.value().ResidentBytes();
  EXPECT_LE(max_resident_after_release,
            sharded.value()
                .segment(sharded.value().NumSegments() - 1)
                .byte_size);
  // Pinned segments are never evicted even when the budget is blown.
  std::vector<PinnedSegment> pins;
  for (int64_t s = 0; s < sharded.value().NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = sharded.value().Pin(s);
    ASSERT_TRUE(pin.ok());
    pins.push_back(std::move(pin).value());
  }
  EXPECT_EQ(sharded.value().ResidentBytes(),
            sharded.value().StorageBytes() -
                static_cast<int64_t>((m.rows() + 1) * sizeof(int64_t)));
  for (const PinnedSegment& pin : pins) {
    EXPECT_NE(pin.view().row_ptr, nullptr);
  }
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, ZeroBudgetIsUnbounded) {
  const CsrMatrix m = RandomCsr(32, 32, 4, 19);
  const std::string path = ScratchPath("sharded_unbounded.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 8;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path, /*mem_budget*/ 0);
  ASSERT_TRUE(sharded.ok());
  for (int64_t s = 0; s < sharded.value().NumSegments(); ++s) {
    ASSERT_TRUE(sharded.value().Pin(s).ok());
  }
  // Nothing evicted: the resident fallback keeps every segment mapped.
  EXPECT_EQ(sharded.value().ResidentBytes(),
            sharded.value().StorageBytes() -
                static_cast<int64_t>((m.rows() + 1) * sizeof(int64_t)));
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, MissingFileIsNotFound) {
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open("/nonexistent/store.mcss");
  EXPECT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kNotFound);
}

TEST(ShardedCsrTest, CorruptHeaderRejected) {
  const CsrMatrix m = RandomCsr(16, 16, 3, 23);
  const std::string path = ScratchPath("sharded_corrupt.mcss");
  ASSERT_TRUE(ShardedCsr::Write(m, path).ok());

  // Bad magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  EXPECT_EQ(ShardedCsr::Open(path).status().code(),
            StatusCode::kInvalidArgument);

  // Restore, then corrupt the row count to something absurd: must come
  // back as a Status, not a giant allocation or a crash.
  ASSERT_TRUE(ShardedCsr::Write(m, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // header: magic+version, then rows.
    const int64_t absurd = int64_t{1} << 56;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  EXPECT_EQ(ShardedCsr::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, TruncatedFileRejected) {
  const CsrMatrix m = RandomCsr(16, 16, 3, 29);
  const std::string path = ScratchPath("sharded_truncated.mcss");
  ASSERT_TRUE(ShardedCsr::Write(m, path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  EXPECT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, TruncationAfterOpenFailsPinCleanly) {
  const CsrMatrix m = RandomCsr(32, 32, 4, 31);
  const std::string path = ScratchPath("sharded_shrunk.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 8;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok());
  // The store shrinks underneath the open handle (the mmap-failure case:
  // mapping past EOF would SIGBUS on first touch). Pin must return a
  // Status, not crash.
  std::filesystem::resize_file(path, 64);
  StatusOr<PinnedSegment> pin = sharded.value().Pin(0);
  EXPECT_FALSE(pin.ok());
  EXPECT_EQ(pin.status().code(), StatusCode::kInternal);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, PinnedBytesTracksPinLifetimes) {
  const CsrMatrix m = RandomCsr(64, 64, 6, 31);
  const std::string path = ScratchPath("sharded_pinned_bytes.mcss");
  ShardOptions options;
  options.max_rows_per_segment = 16;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
  ASSERT_TRUE(sharded.ok());
  const ShardedCsr& store = sharded.value();
  EXPECT_EQ(store.PinnedBytes(), 0);
  {
    StatusOr<PinnedSegment> a = store.Pin(0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(store.PinnedBytes(), store.segment(0).byte_size);
    // A second pin of the same segment must not double-count.
    StatusOr<PinnedSegment> a2 = store.Pin(0);
    ASSERT_TRUE(a2.ok());
    EXPECT_EQ(store.PinnedBytes(), store.segment(0).byte_size);
    StatusOr<PinnedSegment> b = store.Pin(2);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(store.PinnedBytes(),
              store.segment(0).byte_size + store.segment(2).byte_size);
  }
  EXPECT_EQ(store.PinnedBytes(), 0);
  std::filesystem::remove(path);
}

TEST(ShardedCsrTest, PrefetchHintThenPinPrefetchedIsBitIdentical) {
  const CsrMatrix m = RandomCsr(64, 64, 6, 37);
  const std::string path = ScratchPath("sharded_prefetch_hint.mcss");
  const int64_t saved_depth = PrefetchSegments();
  SetPrefetchSegments(2);
  {
    ShardOptions options;
    options.max_rows_per_segment = 16;
    ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
    StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path);
    ASSERT_TRUE(sharded.ok());
    const ShardedCsr& store = sharded.value();
    std::vector<int64_t> order(static_cast<size_t>(store.NumSegments()));
    std::iota(order.begin(), order.end(), 0);
    store.PrefetchHintSegments(std::move(order));
    for (int64_t s = 0; s < store.NumSegments(); ++s) {
      StatusOr<PinnedSegment> pre = store.PinPrefetched(s);
      StatusOr<PinnedSegment> plain = store.Pin(s);
      ASSERT_TRUE(pre.ok()) << pre.status().ToString();
      ASSERT_TRUE(plain.ok());
      const CsrView& a = pre.value().view();
      const CsrView& b = plain.value().view();
      ASSERT_EQ(a.nnz, b.nnz);
      for (int64_t r = 0; r <= a.row_end - a.row_begin; ++r) {
        EXPECT_EQ(a.row_ptr[r], b.row_ptr[r]);
      }
      for (int64_t k = 0; k < a.nnz; ++k) {
        EXPECT_EQ(a.col_idx[k], b.col_idx[k]);
        EXPECT_EQ(a.values[k], b.values[k]);
      }
    }
  }
  SetPrefetchSegments(saved_depth);
  std::filesystem::remove(path);
}

TEST(ShardedCsrWriterTest, RejectsBadRowsAndEarlyFinalize) {
  const std::string path = ScratchPath("sharded_writer_misuse.mcss");
  StatusOr<ShardedCsrWriter> writer = ShardedCsrWriter::Create(path, 2, 4);
  ASSERT_TRUE(writer.ok());
  const int32_t descending[2] = {3, 1};
  const float vals[2] = {1.0f, 2.0f};
  EXPECT_EQ(writer.value().AppendRow(descending, vals, 2).code(),
            StatusCode::kInvalidArgument);
  const int32_t out_of_range[1] = {9};
  EXPECT_EQ(writer.value().AppendRow(out_of_range, vals, 1).code(),
            StatusCode::kInvalidArgument);
  // Finalize before both rows were appended.
  EXPECT_FALSE(writer.value().Finalize().ok());
  std::filesystem::remove(path);
}

TEST(ShardedCsrWriterTest, InertDefaultWriterRejectsEverything) {
  ShardedCsrWriter writer;
  EXPECT_EQ(writer.AppendRow(nullptr, nullptr, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.Finalize().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace mcond
