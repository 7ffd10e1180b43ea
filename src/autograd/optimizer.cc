#include "autograd/optimizer.h"

#include <cmath>

#include "core/parallel.h"

namespace mcond {

namespace {

// Both updates read the accumulated gradient in place and fold weight decay
// in per element. Every element is updated by one chunk with no
// cross-element state, so the bits do not depend on the pool width.

/// Elements per ParallelFor chunk of an optimizer update.
constexpr int64_t kUpdateGrain = int64_t{1} << 14;

/// g + wd·x, the expression AxpyInPlace(g, wd, x) evaluates; g when wd = 0.
inline float DecayedGrad(float g, float x, float wd) {
  return wd > 0.0f ? g + wd * x : g;
}

}  // namespace

void SgdOptimizer::Step() {
  const float step = -lr_;
  const float wd = weight_decay_;
  for (const Variable& p : params_) {
    if (p->grad().empty()) continue;
    const float* pg = p->grad().data();
    float* px = p->mutable_value().data();
    ParallelFor(
        0, p->value().size(), kUpdateGrain,
        [&](int64_t k0, int64_t k1) {
          for (int64_t k = k0; k < k1; ++k) {
            const float g = DecayedGrad(pg[k], px[k], wd);
            px[k] += step * g;
          }
        },
        "optim.sgd");
    p->ZeroGrad();
  }
}

AdamOptimizer::AdamOptimizer(std::vector<Variable> params, float lr,
                             float weight_decay, float beta1, float beta2,
                             float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Variable& p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

void AdamOptimizer::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float wd = weight_decay_;
  for (size_t i = 0; i < params_.size(); ++i) {
    const Variable& p = params_[i];
    if (p->grad().empty()) continue;
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    const float* pg = p->grad().data();
    float* px = p->mutable_value().data();
    ParallelFor(
        0, p->value().size(), kUpdateGrain,
        [&](int64_t k0, int64_t k1) {
          for (int64_t k = k0; k < k1; ++k) {
            const float g = DecayedGrad(pg[k], px[k], wd);
            pm[k] = beta1_ * pm[k] + (1.0f - beta1_) * g;
            pv[k] = beta2_ * pv[k] + (1.0f - beta2_) * g * g;
            const float mhat = pm[k] / bc1;
            const float vhat = pv[k] / bc2;
            px[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
          }
        },
        "optim.adam");
    p->ZeroGrad();
  }
}

}  // namespace mcond
