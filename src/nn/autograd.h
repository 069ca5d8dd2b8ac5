#ifndef DTT_NN_AUTOGRAD_H_
#define DTT_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace dtt {
namespace nn {

/// A node of the dynamic computation graph (define-by-run, reverse mode).
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this node's grad into its parents' grads. May be empty for
  /// leaves.
  std::function<void(Node*)> backward;

  void AccumulateGrad(const Tensor& g);
  bool HasGrad() const { return !grad.empty(); }
  void ZeroGrad() { grad = Tensor(); }
};

/// Lightweight value-semantics handle to a graph node. Copies share the node.
class Var {
 public:
  Var() = default;
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// A leaf holding `value`; participates in autodiff iff `requires_grad`.
  static Var Leaf(Tensor value, bool requires_grad);

  /// A leaf parameter with Xavier/Glorot-uniform init for a [fan_in, fan_out]
  /// matrix.
  static Var XavierParam(int fan_in, int fan_out, Rng* rng);

  /// A leaf parameter initialized from N(0, stddev^2).
  static Var GaussianParam(std::vector<int> shape, float stddev, Rng* rng);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Tensor& grad() const { return node_->grad; }

  std::shared_ptr<Node> node() const { return node_; }

  /// Runs reverse-mode autodiff from this node, which must hold a scalar
  /// ([1]-shaped) value. Gradients accumulate into every reachable leaf with
  /// requires_grad.
  void Backward() const;

 private:
  std::shared_ptr<Node> node_;
};

/// Creates an interior node: the result of an op over `parents` whose pullback
/// is `backward`.
Var MakeOpNode(Tensor value, std::vector<Var> parents,
               std::function<void(Node*)> backward);

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_AUTOGRAD_H_
