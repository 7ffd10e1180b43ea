#include "autograd/variable.h"

#include <unordered_set>

#include "core/tensor_ops.h"

namespace mcond {

bool VariableNode::AddToExistingGrad(const Tensor& g) {
  MCOND_CHECK(g.rows() == value_.rows() && g.cols() == value_.cols())
      << "gradient shape " << g.rows() << "x" << g.cols()
      << " does not match value " << value_.rows() << "x" << value_.cols();
  if (grad_.empty() && grad_.rows() == 0) return false;
  AxpyInPlace(grad_, 1.0f, g);
  return true;
}

void VariableNode::AccumulateGrad(const Tensor& g) {
  if (!AddToExistingGrad(g)) grad_ = g;
}

void VariableNode::AccumulateGrad(Tensor&& g) {
  if (!AddToExistingGrad(g)) grad_ = std::move(g);
}

Variable MakeVariable(Tensor value, bool requires_grad) {
  return std::make_shared<VariableNode>(std::move(value), requires_grad);
}

Variable MakeConstant(Tensor value) {
  return MakeVariable(std::move(value), /*requires_grad=*/false);
}

namespace {

/// Iterative post-order DFS producing nodes in topological order (parents
/// before children in the output vector, so reverse iteration visits each
/// node after all of its consumers).
void TopoSort(const Variable& root, std::vector<VariableNode*>& order) {
  std::unordered_set<VariableNode*> visited;
  struct Frame {
    VariableNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root.get()).second) stack.push_back({root.get(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents().size()) {
      VariableNode* p = f.node->parents()[f.next_parent].get();
      ++f.next_parent;
      if (p->requires_grad() && visited.insert(p).second) {
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Variable& root) {
  MCOND_CHECK(root != nullptr);
  MCOND_CHECK(root->rows() == 1 && root->cols() == 1)
      << "Backward root must be a scalar, got " << root->rows() << "x"
      << root->cols();
  if (!root->requires_grad()) return;  // Nothing trainable upstream.
  std::vector<VariableNode*> order;
  TopoSort(root, order);
  root->AccumulateGrad(Tensor::Ones(1, 1));
  // `order` is post-order (parents first); walk it backwards so every node's
  // gradient is complete before its backward closure fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VariableNode* node = *it;
    if (node->backward_fn() && !node->grad().empty()) {
      node->backward_fn()();
    }
  }
}

void ZeroGradAll(const std::vector<Variable>& params) {
  for (const Variable& p : params) p->ZeroGrad();
}

}  // namespace mcond
