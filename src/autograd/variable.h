#ifndef MCOND_AUTOGRAD_VARIABLE_H_
#define MCOND_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"

namespace mcond {

class VariableNode;

/// Handle to a node in the dynamically built computation graph. Ops in
/// autograd/ops.h take and return Variables; Backward() walks the tape.
using Variable = std::shared_ptr<VariableNode>;

/// One node of the reverse-mode tape: a dense tensor value, an optional
/// gradient of the (scalar) loss w.r.t. it, the parent nodes it was computed
/// from, and a closure that pushes this node's gradient into its parents.
///
/// Graphs are rebuilt on every forward pass (define-by-run), so control flow
/// in model code is plain C++.
class VariableNode {
 public:
  VariableNode(Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  VariableNode(const VariableNode&) = delete;
  VariableNode& operator=(const VariableNode&) = delete;

  const Tensor& value() const { return value_; }
  Tensor& mutable_value() { return value_; }

  /// Gradient accumulated by Backward(). Zero-shaped until first accumulation.
  const Tensor& grad() const { return grad_; }
  Tensor& mutable_grad() { return grad_; }

  bool requires_grad() const { return requires_grad_; }

  /// Adds `g` into the stored gradient. The first accumulation copies `g`;
  /// the rvalue overload takes ownership of its buffer instead, so a
  /// backward closure hands over the gradient it just built.
  void AccumulateGrad(const Tensor& g);
  void AccumulateGrad(Tensor&& g);

  /// Drops the accumulated gradient (used between optimizer steps).
  void ZeroGrad() { grad_ = Tensor(); }

  int64_t rows() const { return value_.rows(); }
  int64_t cols() const { return value_.cols(); }

  /// Wiring used by op constructors; not for model code.
  void set_parents(std::vector<Variable> parents) {
    parents_ = std::move(parents);
  }
  void set_backward_fn(std::function<void()> fn) {
    backward_fn_ = std::move(fn);
  }
  const std::vector<Variable>& parents() const { return parents_; }
  const std::function<void()>& backward_fn() const { return backward_fn_; }

 private:
  /// Checks `g`'s shape, then adds it into grad_ if grad_ is set. Returns
  /// false, leaving grad_ untouched, on the first accumulation.
  bool AddToExistingGrad(const Tensor& g);

  Tensor value_;
  Tensor grad_;
  bool requires_grad_;
  std::vector<Variable> parents_;
  std::function<void()> backward_fn_;
};

/// Creates a leaf variable. `requires_grad` marks trainable parameters; the
/// tape only visits subgraphs that can reach one.
Variable MakeVariable(Tensor value, bool requires_grad);

/// Creates a non-trainable leaf (input data, labels, fixed matrices).
Variable MakeConstant(Tensor value);

/// Reverse-mode sweep from `root`, which must be a 1×1 scalar. Seeds the
/// root gradient with 1 and invokes each node's backward closure in reverse
/// topological order. Gradients *accumulate* across calls; call ZeroGrad on
/// parameters between steps.
void Backward(const Variable& root);

/// Convenience: zero the gradients of every variable in `params`.
void ZeroGradAll(const std::vector<Variable>& params);

}  // namespace mcond

#endif  // MCOND_AUTOGRAD_VARIABLE_H_
