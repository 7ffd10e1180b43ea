#include "autograd/optimizer.h"

#include <cmath>

#include "core/parallel.h"
#include "core/simd.h"

namespace mcond {

namespace {

// The update reads the accumulated gradient in place and folds weight decay
// in per element. Every element is updated by one chunk with no
// cross-element state, so the bits do not depend on the pool width.

/// Elements per ParallelFor chunk of an optimizer update.
constexpr int64_t kUpdateGrain = int64_t{1} << 14;

/// The scalars of one Adam step.
struct AdamScalars {
  float lr, wd, beta1, beta2, eps, bc1, bc2;
};

/// One Adam update of n elements (MCOND_VECTOR_CLONES: lanes are
/// independent, and vsqrtps/vdivps round like sqrtss/divss). kDecay folds
/// weight decay in as g + wd·x, the expression AxpyInPlace(g, wd, x)
/// evaluates; without it g stays as stored (g + 0·x would turn −0 into +0).
/// A template, as GCC does not vectorize a loop with a branch in it.
template <bool kDecay>
MCOND_VECTOR_CLONES void AdamLoop(const AdamScalars& s, const float* pg,
                                  float* pm, float* pv, float* px,
                                  int64_t n) {
  for (int64_t k = 0; k < n; ++k) {
    const float g = kDecay ? pg[k] + s.wd * px[k] : pg[k];
    pm[k] = s.beta1 * pm[k] + (1.0f - s.beta1) * g;
    pv[k] = s.beta2 * pv[k] + (1.0f - s.beta2) * g * g;
    const float mhat = pm[k] / s.bc1;
    const float vhat = pv[k] / s.bc2;
    px[k] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Variable> params, float lr,
                             float weight_decay, float beta1, float beta2,
                             float eps)
    : params_(std::move(params)),
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
  const AdamScalars s{lr_,
                      weight_decay_,
                      beta1_,
                      beta2_,
                      eps_,
                      1.0f - std::pow(beta1_, static_cast<float>(t_)),
                      1.0f - std::pow(beta2_, static_cast<float>(t_))};
  const auto loop = s.wd > 0.0f ? AdamLoop<true> : AdamLoop<false>;
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
          loop(s, pg + k0, pm + k0, pv + k0, px + k0, k1 - k0);
        },
        "optim.adam");
    p->ZeroGrad();
  }
}

}  // namespace mcond
