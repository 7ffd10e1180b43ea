#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "core/parallel.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace ops {

namespace {

/// Builds the result node for an op: requires_grad is inherited from any
/// parent. The caller then installs the backward closure. Closures capture
/// parents as shared_ptr Variables (keeps the subgraph alive) and the result
/// as a raw pointer (the closure lives inside the result node, so capturing
/// it as shared_ptr would leak via a reference cycle).
Variable MakeOp(Tensor value, std::vector<Variable> parents) {
  bool requires_grad = false;
  for (const Variable& p : parents) requires_grad |= p->requires_grad();
  Variable out = MakeVariable(std::move(value), requires_grad);
  out->set_parents(std::move(parents));
  return out;
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Variable out = MakeOp(mcond::MatMul(a->value(), b->value()), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb]() {
    const Tensor& g = o->grad();
    if (pa->requires_grad()) pa->AccumulateGrad(MatMulTransB(g, pb->value()));
    if (pb->requires_grad()) pb->AccumulateGrad(MatMulTransA(pa->value(), g));
  });
  return out;
}

Variable SpMM(const CsrMatrix& s, const Variable& x) {
  Variable out = MakeOp(s.SpMM(x->value()), {x});
  VariableNode* o = out.get();
  Variable px = x;
  const CsrMatrix* sp = &s;
  out->set_backward_fn([o, px, sp]() {
    if (px->requires_grad()) {
      px->AccumulateGrad(sp->SpMMTransposed(o->grad()));
    }
  });
  return out;
}

Variable Add(const Variable& a, const Variable& b) {
  Variable out = MakeOp(mcond::Add(a->value(), b->value()), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb]() {
    if (pa->requires_grad()) pa->AccumulateGrad(o->grad());
    if (pb->requires_grad()) pb->AccumulateGrad(o->grad());
  });
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  Variable out = MakeOp(mcond::Sub(a->value(), b->value()), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb]() {
    if (pa->requires_grad()) pa->AccumulateGrad(o->grad());
    if (pb->requires_grad()) pb->AccumulateGrad(mcond::Scale(o->grad(), -1.0f));
  });
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  Variable out = MakeOp(mcond::Mul(a->value(), b->value()), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb]() {
    if (pa->requires_grad())
      pa->AccumulateGrad(mcond::Mul(o->grad(), pb->value()));
    if (pb->requires_grad())
      pb->AccumulateGrad(mcond::Mul(o->grad(), pa->value()));
  });
  return out;
}

Variable Scale(const Variable& a, float s) {
  Variable out = MakeOp(mcond::Scale(a->value(), s), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, s]() {
    if (pa->requires_grad()) pa->AccumulateGrad(mcond::Scale(o->grad(), s));
  });
  return out;
}

Variable AddScalar(const Variable& a, float c) {
  Tensor v = a->value();
  float* p = v.data();
  ParallelFor(
      0, v.size(), GrainFromCost(2),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) p[i] += c;
      },
      "ops.add_scalar");
  Variable out = MakeOp(std::move(v), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (pa->requires_grad()) pa->AccumulateGrad(o->grad());
  });
  return out;
}

Variable AddRowBroadcast(const Variable& a, const Variable& row_1xd) {
  Variable out =
      MakeOp(mcond::AddRowBroadcast(a->value(), row_1xd->value()), {a, row_1xd});
  VariableNode* o = out.get();
  Variable pa = a, pr = row_1xd;
  out->set_backward_fn([o, pa, pr]() {
    if (pa->requires_grad()) pa->AccumulateGrad(o->grad());
    if (pr->requires_grad()) pr->AccumulateGrad(ColSum(o->grad()));
  });
  return out;
}

namespace {

Tensor ScaleRows(const Tensor& a, const Tensor& col) {
  MCOND_CHECK_EQ(col.rows(), a.rows());
  MCOND_CHECK_EQ(col.cols(), 1);
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  ParallelFor(
      0, a.rows(), GrainFromCost(2 * a.cols()),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float s = col.At(i, 0);
          const float* src = a.RowData(i);
          float* row = out.RowData(i);
          for (int64_t j = 0; j < a.cols(); ++j) row[j] = src[j] * s;
        }
      },
      "ops.scale_rows");
  return out;
}

Tensor ScaleCols(const Tensor& a, const Tensor& row_vec) {
  MCOND_CHECK_EQ(row_vec.cols(), a.cols());
  MCOND_CHECK_EQ(row_vec.rows(), 1);
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* s = row_vec.data();
  ParallelFor(
      0, a.rows(), GrainFromCost(2 * a.cols()),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* src = a.RowData(i);
          float* row = out.RowData(i);
          for (int64_t j = 0; j < a.cols(); ++j) row[j] = src[j] * s[j];
        }
      },
      "ops.scale_cols");
  return out;
}

}  // namespace

Variable MulRowBroadcast(const Variable& a, const Variable& col_nx1) {
  Variable out = MakeOp(ScaleRows(a->value(), col_nx1->value()), {a, col_nx1});
  VariableNode* o = out.get();
  Variable pa = a, pv = col_nx1;
  out->set_backward_fn([o, pa, pv]() {
    if (pa->requires_grad()) {
      pa->AccumulateGrad(ScaleRows(o->grad(), pv->value()));
    }
    if (pv->requires_grad()) {
      pv->AccumulateGrad(mcond::RowSum(mcond::Mul(o->grad(), pa->value())));
    }
  });
  return out;
}

Variable MulColBroadcast(const Variable& a, const Variable& row_1xm) {
  Variable out = MakeOp(ScaleCols(a->value(), row_1xm->value()), {a, row_1xm});
  VariableNode* o = out.get();
  Variable pa = a, pv = row_1xm;
  out->set_backward_fn([o, pa, pv]() {
    if (pa->requires_grad()) {
      pa->AccumulateGrad(ScaleCols(o->grad(), pv->value()));
    }
    if (pv->requires_grad()) {
      pv->AccumulateGrad(ColSum(mcond::Mul(o->grad(), pa->value())));
    }
  });
  return out;
}

Variable DivRowBroadcast(const Variable& a, const Variable& col_nx1) {
  const Tensor& v = col_nx1->value();
  Tensor inv(v.rows(), 1);
  for (int64_t i = 0; i < v.rows(); ++i) {
    MCOND_CHECK_GT(v.At(i, 0), 0.0f) << "DivRowBroadcast needs positive rows";
    inv.At(i, 0) = 1.0f / v.At(i, 0);
  }
  Variable out = MakeOp(ScaleRows(a->value(), inv), {a, col_nx1});
  VariableNode* o = out.get();
  Variable pa = a, pv = col_nx1;
  out->set_backward_fn([o, pa, pv]() {
    const Tensor& v2 = pv->value();
    Tensor inv2(v2.rows(), 1);
    for (int64_t i = 0; i < v2.rows(); ++i) inv2.At(i, 0) = 1.0f / v2.At(i, 0);
    if (pa->requires_grad()) {
      pa->AccumulateGrad(ScaleRows(o->grad(), inv2));
    }
    if (pv->requires_grad()) {
      // d/dv_i = -Σ_j g_ij a_ij / v_i².
      Tensor gv = mcond::RowSum(mcond::Mul(o->grad(), pa->value()));
      for (int64_t i = 0; i < gv.rows(); ++i) {
        gv.At(i, 0) *= -inv2.At(i, 0) * inv2.At(i, 0);
      }
      pv->AccumulateGrad(std::move(gv));
    }
  });
  return out;
}

Variable PairSum(const Variable& u, const Variable& v) {
  MCOND_CHECK_EQ(u->cols(), v->cols()) << "PairSum width mismatch";
  const int64_t n = u->rows(), m = v->rows(), h = u->cols();
  const Tensor& uv = u->value();
  const Tensor& vv = v->value();
  Tensor sums = Tensor::Uninitialized(n * m, h);
  ParallelFor(
      0, n * m, GrainFromCost(h),
      [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
          const float* ui = uv.RowData(p / m);
          const float* vj = vv.RowData(p % m);
          float* row = sums.RowData(p);
          for (int64_t c = 0; c < h; ++c) row[c] = ui[c] + vj[c];
        }
      },
      "ops.pair_sum");
  Variable out = MakeOp(std::move(sums), {u, v});
  VariableNode* o = out.get();
  Variable pu = u, pv = v;
  out->set_backward_fn([o, pu, pv, n, m, h]() {
    const Tensor& g = o->grad();
    if (pu->requires_grad()) {
      // dU_i = Σ_j g[i·m + j], j ascending; one task owns each output row.
      Tensor du(n, h);
      ParallelFor(
          0, n, GrainFromCost(m * h),
          [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
              float* dst = du.RowData(i);
              for (int64_t j = 0; j < m; ++j) {
                const float* src = g.RowData(i * m + j);
                for (int64_t c = 0; c < h; ++c) dst[c] += src[c];
              }
            }
          },
          "ops.pair_sum_bwd_u");
      pu->AccumulateGrad(std::move(du));
    }
    if (pv->requires_grad()) {
      // dV_j = Σ_i g[i·m + j], i ascending for every j. A task owns the
      // rows [j0, j1) and walks i outermost, so it reads g in contiguous
      // (j1 - j0)·h runs.
      Tensor dv(m, h);
      ParallelFor(
          0, m, GrainFromCost(n * h),
          [&](int64_t j0, int64_t j1) {
            for (int64_t i = 0; i < n; ++i) {
              for (int64_t j = j0; j < j1; ++j) {
                const float* src = g.RowData(i * m + j);
                float* dst = dv.RowData(j);
                for (int64_t c = 0; c < h; ++c) dst[c] += src[c];
              }
            }
          },
          "ops.pair_sum_bwd_v");
      pv->AccumulateGrad(std::move(dv));
    }
  });
  return out;
}

Variable Relu(const Variable& a) {
  Variable out = MakeOp(mcond::Relu(a->value()), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (pa->requires_grad()) {
      pa->AccumulateGrad(mcond::Mul(o->grad(), ReluMask(pa->value())));
    }
  });
  return out;
}

Variable Sigmoid(const Variable& a) {
  Variable out = MakeOp(mcond::Sigmoid(a->value()), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (!pa->requires_grad()) return;
    const Tensor& y = o->value();
    Tensor d = Tensor::Uninitialized(y.rows(), y.cols());
    const float* py = y.data();
    const float* pg = o->grad().data();
    float* pd = d.data();
    ParallelFor(
        0, y.size(), GrainFromCost(3),
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            pd[i] = pg[i] * py[i] * (1.0f - py[i]);
          }
        },
        "ops.sigmoid_bwd");
    pa->AccumulateGrad(std::move(d));
  });
  return out;
}

Variable SigmoidRowNormalize(const Variable& a, float eps) {
  Tensor y, inv;
  Variable out =
      MakeOp(mcond::SigmoidRowNormalize(a->value(), eps, &y, &inv), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, y = std::move(y), inv = std::move(inv)]() {
    if (!pa->requires_grad()) return;
    pa->AccumulateGrad(
        SigmoidRowNormalizeBackward(o->grad(), o->value(), y, inv));
  });
  return out;
}

Variable PowV(const Variable& a, float p) {
  Tensor v = Tensor::Uninitialized(a->rows(), a->cols());
  const float* src = a->value().data();
  float* dst = v.data();
  ParallelFor(
      0, v.size(), GrainFromCost(64),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) dst[i] = std::pow(src[i], p);
      },
      "ops.pow");
  Variable out = MakeOp(std::move(v), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, p]() {
    if (!pa->requires_grad()) return;
    const Tensor& x = pa->value();
    Tensor d = Tensor::Uninitialized(x.rows(), x.cols());
    const float* px = x.data();
    const float* pg = o->grad().data();
    float* pd = d.data();
    ParallelFor(
        0, x.size(), GrainFromCost(64),
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            pd[i] = pg[i] * p * std::pow(px[i], p - 1.0f);
          }
        },
        "ops.pow_bwd");
    pa->AccumulateGrad(std::move(d));
  });
  return out;
}

Variable Transpose(const Variable& a) {
  Variable out = MakeOp(mcond::Transpose(a->value()), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (pa->requires_grad()) pa->AccumulateGrad(mcond::Transpose(o->grad()));
  });
  return out;
}

Variable Reshape(const Variable& a, int64_t rows, int64_t cols) {
  MCOND_CHECK_EQ(a->value().size(), rows * cols) << "Reshape size mismatch";
  Tensor v = a->value();
  std::vector<float> data(v.data(), v.data() + v.size());
  Variable out = MakeOp(Tensor::FromVector(rows, cols, std::move(data)), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (!pa->requires_grad()) return;
    const Tensor& g = o->grad();
    std::vector<float> data(g.data(), g.data() + g.size());
    pa->AccumulateGrad(
        Tensor::FromVector(pa->rows(), pa->cols(), std::move(data)));
  });
  return out;
}

Variable ConcatCols(const Variable& left, const Variable& right) {
  Variable out =
      MakeOp(mcond::ConcatCols(left->value(), right->value()), {left, right});
  VariableNode* o = out.get();
  Variable pl = left, pr = right;
  out->set_backward_fn([o, pl, pr]() {
    const Tensor& g = o->grad();
    const int64_t lc = pl->cols();
    if (pl->requires_grad()) {
      Tensor gl = Tensor::Uninitialized(g.rows(), lc);
      ParallelFor(
          0, g.rows(), GrainFromCost(lc),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              std::copy(g.RowData(i), g.RowData(i) + lc, gl.RowData(i));
            }
          },
          "ops.concat_cols_bwd");
      pl->AccumulateGrad(std::move(gl));
    }
    if (pr->requires_grad()) {
      Tensor gr = Tensor::Uninitialized(g.rows(), g.cols() - lc);
      ParallelFor(
          0, g.rows(), GrainFromCost(g.cols() - lc),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              std::copy(g.RowData(i) + lc, g.RowData(i) + g.cols(),
                        gr.RowData(i));
            }
          },
          "ops.concat_cols_bwd");
      pr->AccumulateGrad(std::move(gr));
    }
  });
  return out;
}

Variable SliceRows(const Variable& a, int64_t begin, int64_t end) {
  Variable out = MakeOp(mcond::SliceRows(a->value(), begin, end), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, begin]() {
    if (!pa->requires_grad()) return;
    Tensor g(pa->rows(), pa->cols());
    ScatterRowsInPlace(g, begin, o->grad());
    pa->AccumulateGrad(std::move(g));
  });
  return out;
}

Variable GatherRows(const Variable& a, std::vector<int64_t> indices) {
  Variable out = MakeOp(mcond::GatherRows(a->value(), indices), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, idx = std::move(indices)]() {
    if (!pa->requires_grad()) return;
    Tensor g(pa->rows(), pa->cols());
    const Tensor& og = o->grad();
    // Serial on purpose: idx may contain duplicates, so the scatter-add
    // below races under row partitioning of the OUTPUT of the gather.
    for (size_t i = 0; i < idx.size(); ++i) {
      float* dst = g.RowData(idx[i]);
      const float* src = og.RowData(static_cast<int64_t>(i));
      for (int64_t j = 0; j < g.cols(); ++j) dst[j] += src[j];
    }
    pa->AccumulateGrad(std::move(g));
  });
  return out;
}

Variable RowSum(const Variable& a) {
  Variable out = MakeOp(mcond::RowSum(a->value()), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (!pa->requires_grad()) return;
    Tensor g = Tensor::Uninitialized(pa->rows(), pa->cols());
    const Tensor& og = o->grad();
    ParallelFor(
        0, g.rows(), GrainFromCost(g.cols()),
        [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float v = og.At(i, 0);
            float* row = g.RowData(i);
            for (int64_t j = 0; j < g.cols(); ++j) row[j] = v;
          }
        },
        "ops.row_sum_bwd");
    pa->AccumulateGrad(std::move(g));
  });
  return out;
}

Variable SumAll(const Variable& a) {
  Tensor s(1, 1);
  s.At(0, 0) = mcond::Sum(a->value());
  Variable out = MakeOp(std::move(s), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (!pa->requires_grad()) return;
    pa->AccumulateGrad(
        Tensor::Full(pa->rows(), pa->cols(), o->grad().At(0, 0)));
  });
  return out;
}

Variable SoftmaxRows(const Variable& a) {
  Variable out = MakeOp(mcond::SoftmaxRows(a->value()), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa]() {
    if (!pa->requires_grad()) return;
    const Tensor& y = o->value();
    const Tensor& g = o->grad();
    Tensor d = Tensor::Uninitialized(y.rows(), y.cols());
    // Row-parallel: each row's dot is folded in ascending j on one thread,
    // so results match the serial loop bit for bit.
    ParallelFor(
        0, y.rows(), GrainFromCost(4 * y.cols()),
        [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float* py = y.RowData(i);
            const float* pg = g.RowData(i);
            float dot = 0.0f;
            for (int64_t j = 0; j < y.cols(); ++j) dot += py[j] * pg[j];
            float* pd = d.RowData(i);
            for (int64_t j = 0; j < y.cols(); ++j) {
              pd[j] = py[j] * (pg[j] - dot);
            }
          }
        },
        "ops.softmax_bwd");
    pa->AccumulateGrad(std::move(d));
  });
  return out;
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& labels) {
  MCOND_CHECK_EQ(logits->rows(), static_cast<int64_t>(labels.size()));
  const Tensor probs = mcond::SoftmaxRows(logits->value());
  const int64_t n = probs.rows();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    MCOND_CHECK(y >= 0 && y < probs.cols()) << "label " << y;
    loss -= std::log(std::max(probs.At(i, y), 1e-12f));
  }
  Tensor s(1, 1);
  s.At(0, 0) = static_cast<float>(loss / n);
  Variable out = MakeOp(std::move(s), {logits});
  VariableNode* o = out.get();
  Variable pl = logits;
  out->set_backward_fn([o, pl, probs, labels]() {
    if (!pl->requires_grad()) return;
    const float scale = o->grad().At(0, 0) / static_cast<float>(probs.rows());
    Tensor g = probs;
    for (int64_t i = 0; i < g.rows(); ++i) {
      g.At(i, labels[static_cast<size_t>(i)]) -= 1.0f;
    }
    pl->AccumulateGrad(mcond::Scale(g, scale));
  });
  return out;
}

Variable L21Norm(const Variable& a) {
  const Tensor norms = RowL2Norm(a->value());
  Tensor s(1, 1);
  s.At(0, 0) = mcond::Sum(norms);
  Variable out = MakeOp(std::move(s), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, norms]() {
    if (!pa->requires_grad()) return;
    const float scale = o->grad().At(0, 0);
    const Tensor& x = pa->value();
    Tensor g(x.rows(), x.cols());  // Zeroed: kink rows keep subgradient 0.
    ParallelFor(
        0, x.rows(), GrainFromCost(2 * x.cols()),
        [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float nrm = norms.At(i, 0);
            if (nrm < 1e-12f) continue;
            const float inv = scale / nrm;
            const float* xr = x.RowData(i);
            float* gr = g.RowData(i);
            for (int64_t j = 0; j < x.cols(); ++j) gr[j] = inv * xr[j];
          }
        },
        "ops.l21_bwd");
    pa->AccumulateGrad(std::move(g));
  });
  return out;
}

Variable CosineColumnDistance(const Variable& a, const Variable& b) {
  MCOND_CHECK(a->value().SameShape(b->value()))
      << "CosineColumnDistance shape mismatch";
  const Tensor& av = a->value();
  const Tensor& bv = b->value();
  const int64_t rows = av.rows(), cols = av.cols();
  constexpr float kEps = 1e-12f;
  // Per-column norms and dots. Column-partitioned: each column's fold runs
  // on one thread in ascending row order, matching the serial reference.
  std::vector<double> na(cols, 0.0), nb(cols, 0.0), dot(cols, 0.0);
  ParallelFor(
      0, cols, GrainFromCost(6 * rows),
      [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < rows; ++i) {
          const float* ra = av.RowData(i);
          const float* rb = bv.RowData(i);
          for (int64_t j = j0; j < j1; ++j) {
            na[j] += double(ra[j]) * ra[j];
            nb[j] += double(rb[j]) * rb[j];
            dot[j] += double(ra[j]) * rb[j];
          }
        }
      },
      "ops.cosine_cols");
  double total = 0.0;
  std::vector<float> cosv(cols, 0.0f), inv_na(cols, 0.0f), inv_nb(cols, 0.0f);
  std::vector<bool> valid(cols, false);
  for (int64_t j = 0; j < cols; ++j) {
    const double pa_n = std::sqrt(na[j]);
    const double pb_n = std::sqrt(nb[j]);
    if (pa_n > kEps && pb_n > kEps) {
      valid[j] = true;
      cosv[j] = static_cast<float>(dot[j] / (pa_n * pb_n));
      inv_na[j] = static_cast<float>(1.0 / pa_n);
      inv_nb[j] = static_cast<float>(1.0 / pb_n);
      total += 1.0 - cosv[j];
    } else {
      total += 1.0;  // Degenerate column: maximal distance, zero gradient.
    }
  }
  Tensor s(1, 1);
  s.At(0, 0) = static_cast<float>(total);
  Variable out = MakeOp(std::move(s), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb, cosv, inv_na, inv_nb, valid]() {
    const float scale = o->grad().At(0, 0);
    const Tensor& av2 = pa->value();
    const Tensor& bv2 = pb->value();
    const int64_t r = av2.rows(), c = av2.cols();
    // d(1-cos)/du_j = -(v_j/(|u||v|) - cos * u_j/|u|²)
    if (pa->requires_grad()) {
      Tensor g(r, c);  // Zeroed: degenerate columns keep zero gradient.
      ParallelFor(
          0, r, GrainFromCost(6 * c),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* ua = av2.RowData(i);
              const float* ub = bv2.RowData(i);
              float* gr = g.RowData(i);
              for (int64_t j = 0; j < c; ++j) {
                if (!valid[static_cast<size_t>(j)]) continue;
                const float ia = inv_na[static_cast<size_t>(j)];
                const float ib = inv_nb[static_cast<size_t>(j)];
                const float cs = cosv[static_cast<size_t>(j)];
                gr[j] = -scale * (ub[j] * ia * ib - cs * ua[j] * ia * ia);
              }
            }
          },
          "ops.cosine_bwd");
      pa->AccumulateGrad(std::move(g));
    }
    if (pb->requires_grad()) {
      Tensor g(r, c);
      ParallelFor(
          0, r, GrainFromCost(6 * c),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* ua = av2.RowData(i);
              const float* ub = bv2.RowData(i);
              float* gr = g.RowData(i);
              for (int64_t j = 0; j < c; ++j) {
                if (!valid[static_cast<size_t>(j)]) continue;
                const float ia = inv_na[static_cast<size_t>(j)];
                const float ib = inv_nb[static_cast<size_t>(j)];
                const float cs = cosv[static_cast<size_t>(j)];
                gr[j] = -scale * (ua[j] * ia * ib - cs * ub[j] * ib * ib);
              }
            }
          },
          "ops.cosine_bwd");
      pb->AccumulateGrad(std::move(g));
    }
  });
  return out;
}

Variable RowsDotRows(const Variable& a, const Variable& b) {
  MCOND_CHECK(a->value().SameShape(b->value())) << "RowsDotRows mismatch";
  Tensor v = Tensor::Uninitialized(a->rows(), 1);
  const Tensor& at = a->value();
  const Tensor& bt = b->value();
  ParallelFor(
      0, a->rows(), GrainFromCost(2 * a->cols()),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* ra = at.RowData(i);
          const float* rb = bt.RowData(i);
          double acc = 0.0;
          for (int64_t j = 0; j < at.cols(); ++j) acc += double(ra[j]) * rb[j];
          v.At(i, 0) = static_cast<float>(acc);
        }
      },
      "ops.rows_dot_rows");
  Variable out = MakeOp(std::move(v), {a, b});
  VariableNode* o = out.get();
  Variable pa = a, pb = b;
  out->set_backward_fn([o, pa, pb]() {
    const Tensor& g = o->grad();
    if (pa->requires_grad()) {
      Tensor ga = Tensor::Uninitialized(pa->rows(), pa->cols());
      ParallelFor(
          0, ga.rows(), GrainFromCost(2 * ga.cols()),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float s = g.At(i, 0);
              const float* rb = pb->value().RowData(i);
              float* gr = ga.RowData(i);
              for (int64_t j = 0; j < ga.cols(); ++j) gr[j] = s * rb[j];
            }
          },
          "ops.rows_dot_rows_bwd");
      pa->AccumulateGrad(std::move(ga));
    }
    if (pb->requires_grad()) {
      Tensor gb = Tensor::Uninitialized(pb->rows(), pb->cols());
      ParallelFor(
          0, gb.rows(), GrainFromCost(2 * gb.cols()),
          [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float s = g.At(i, 0);
              const float* ra = pa->value().RowData(i);
              float* gr = gb.RowData(i);
              for (int64_t j = 0; j < gb.cols(); ++j) gr[j] = s * ra[j];
            }
          },
          "ops.rows_dot_rows_bwd");
      pb->AccumulateGrad(std::move(gb));
    }
  });
  return out;
}

Variable BceWithLogits(const Variable& scores, const Tensor& targets) {
  MCOND_CHECK(scores->value().SameShape(targets)) << "BceWithLogits mismatch";
  const Tensor probs = mcond::Sigmoid(scores->value());
  const int64_t n = probs.size();
  MCOND_CHECK_GT(n, 0);
  double loss = 0.0;
  const float* pp = probs.data();
  const float* pt = targets.data();
  for (int64_t i = 0; i < n; ++i) {
    const float p = std::min(std::max(pp[i], 1e-7f), 1.0f - 1e-7f);
    loss -= pt[i] * std::log(p) + (1.0f - pt[i]) * std::log(1.0f - p);
  }
  Tensor s(1, 1);
  s.At(0, 0) = static_cast<float>(loss / n);
  Variable out = MakeOp(std::move(s), {scores});
  VariableNode* o = out.get();
  Variable ps = scores;
  out->set_backward_fn([o, ps, probs, targets]() {
    if (!ps->requires_grad()) return;
    const float scale =
        o->grad().At(0, 0) / static_cast<float>(probs.size());
    Tensor g = mcond::Sub(probs, targets);
    ps->AccumulateGrad(mcond::Scale(g, scale));
  });
  return out;
}

Variable Dropout(const Variable& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  MCOND_CHECK_LT(p, 1.0f);
  Tensor mask(a->rows(), a->cols());
  const float keep_inv = 1.0f / (1.0f - p);
  float* pm = mask.data();
  // Mask generation is serial on purpose: the RNG draw sequence defines the
  // mask, and splitting it across threads would change results with the
  // thread count. The masked multiply below is the parallel part.
  for (int64_t i = 0; i < mask.size(); ++i) {
    pm[i] = rng.Bernoulli(1.0 - p) ? keep_inv : 0.0f;
  }
  Variable out = MakeOp(mcond::Mul(a->value(), mask), {a});
  VariableNode* o = out.get();
  Variable pa = a;
  out->set_backward_fn([o, pa, mask]() {
    if (pa->requires_grad()) {
      pa->AccumulateGrad(mcond::Mul(o->grad(), mask));
    }
  });
  return out;
}

}  // namespace ops
}  // namespace mcond
