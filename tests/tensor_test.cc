#include "core/tensor.h"

#include <gtest/gtest.h>

#include "core/tensor_arena.h"

namespace mcond {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_EQ(t.size(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ConstructedZeroFilled) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(t.At(i, j), 0.0f);
  }
}

TEST(TensorTest, AtReadWrite) {
  Tensor t(2, 2);
  t.At(0, 1) = 5.0f;
  t.At(1, 0) = -2.0f;
  EXPECT_EQ(t.At(0, 1), 5.0f);
  EXPECT_EQ(t.At(1, 0), -2.0f);
  EXPECT_EQ(t.At(0, 0), 0.0f);
}

TEST(TensorTest, RowMajorLayout) {
  Tensor t(2, 3);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      t.At(i, j) = static_cast<float>(i * 3 + j);
    }
  }
  const float* p = t.data();
  for (int64_t k = 0; k < 6; ++k) EXPECT_EQ(p[k], static_cast<float>(k));
  EXPECT_EQ(t.RowData(1)[0], 3.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor f = Tensor::Full(2, 2, 7.5f);
  EXPECT_EQ(f.At(1, 1), 7.5f);
  Tensor o = Tensor::Ones(1, 3);
  EXPECT_EQ(o.At(0, 2), 1.0f);
}

TEST(TensorTest, Identity) {
  Tensor id = Tensor::Identity(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id.At(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, FromVectorSizeMismatchDies) {
  EXPECT_DEATH(Tensor::FromVector(2, 2, {1.0f}), "check failed");
}

TEST(TensorTest, OutOfRangeAccessDies) {
  Tensor t(2, 2);
  EXPECT_DEATH(t.At(2, 0), "out of");
  EXPECT_DEATH(t.At(0, -1), "out of");
}

TEST(TensorTest, FillAndSetZero) {
  Tensor t(2, 2);
  t.Fill(3.0f);
  EXPECT_EQ(t.At(1, 1), 3.0f);
  t.SetZero();
  EXPECT_EQ(t.At(1, 1), 0.0f);
}

TEST(TensorTest, AllFinite) {
  Tensor t(2, 2);
  EXPECT_TRUE(t.AllFinite());
  t.At(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.AllFinite());
  t.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.AllFinite());
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor(2, 3).SameShape(Tensor(2, 3)));
  EXPECT_FALSE(Tensor(2, 3).SameShape(Tensor(3, 2)));
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a = Tensor::Ones(2, 2);
  Tensor b = a;
  b.At(0, 0) = 9.0f;
  EXPECT_EQ(a.At(0, 0), 1.0f);
}

// ---------------------------------------------------------------------------
// TensorArena: the allocation substrate behind the serving session's
// zero-heap-allocation steady state (docs/performance.md "Serving").

TEST(TensorArenaTest, HeapAllocationsCountedOutsideArena) {
  const int64_t before = internal::TensorHeapAllocCount();
  Tensor t(16, 16);
  EXPECT_GT(internal::TensorHeapAllocCount(), before);
}

TEST(TensorArenaTest, ArenaTensorsDoNotTouchHeapAfterWarmup) {
  internal::TensorArena arena;
  {
    // Warm-up pass: pages get created (heap allocations are expected).
    internal::ScopedTensorArena scoped(&arena);
    Tensor a(32, 32);
    Tensor b(8, 64);
  }
  arena.Reset();
  const int64_t pages = arena.pages_allocated();
  const int64_t warm = internal::TensorHeapAllocCount();
  for (int round = 0; round < 3; ++round) {
    {
      internal::ScopedTensorArena scoped(&arena);
      Tensor a(32, 32);
      Tensor b(8, 64);
      a.At(1, 1) = 3.0f;
      EXPECT_EQ(a.At(1, 1), 3.0f);
      EXPECT_EQ(b.At(7, 63), 0.0f);  // Arena tensors are still zero-filled.
    }
    arena.Reset();
  }
  EXPECT_EQ(internal::TensorHeapAllocCount(), warm)
      << "repeating an identical allocation profile must reuse pages";
  EXPECT_EQ(arena.pages_allocated(), pages);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(TensorArenaTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(internal::CurrentTensorArena(), nullptr);
  internal::TensorArena arena;
  {
    internal::ScopedTensorArena scoped(&arena);
    EXPECT_EQ(internal::CurrentTensorArena(), &arena);
    {
      internal::ScopedTensorArena inner(nullptr);  // Opt out temporarily.
      EXPECT_EQ(internal::CurrentTensorArena(), nullptr);
    }
    EXPECT_EQ(internal::CurrentTensorArena(), &arena);
  }
  EXPECT_EQ(internal::CurrentTensorArena(), nullptr);
}

TEST(TensorArenaTest, HeapTensorsSurviveAcrossArenaScopes) {
  // Mixing heap and arena tensors must route each deallocation correctly
  // (the ownership header), and heap tensors stay valid after Reset.
  internal::TensorArena arena;  // Outlives every tensor it backs.
  Tensor keep = Tensor::Ones(4, 4);
  {
    internal::ScopedTensorArena scoped(&arena);
    Tensor tmp(64, 64);
    keep = Tensor::Ones(6, 6);  // Arena-allocated...
    Tensor copy_out = keep;
  }
  // ...so copy it to the heap before Reset invalidates arena memory. (The
  // serving session does exactly this with its output logits.)
  Tensor persistent = keep;  // Still inside arena pages: copy while valid.
  arena.Reset();
  EXPECT_EQ(persistent.At(5, 5), 1.0f);
}

}  // namespace
}  // namespace mcond
