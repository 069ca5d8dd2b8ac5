#ifndef DTT_NN_LAYERS_H_
#define DTT_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/ops.h"

namespace dtt {
namespace nn {

/// A named trainable parameter handle, for the optimizer and checkpoints.
struct NamedParam {
  std::string name;
  Var var;
};

/// Base for parameterized modules; children register their parameters so the
/// optimizer and checkpointing can iterate them uniformly.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters (prefixing names with `prefix`).
  virtual void CollectParams(const std::string& prefix,
                             std::vector<NamedParam>* out) = 0;
};

/// Affine map x @ W + b for [T,in] inputs.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  Var Forward(const Var& x) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  /// Raw parameter views for the graph-free inference engine.
  const Tensor& weight_value() const { return weight_.value(); }
  const Tensor& bias_value() const { return bias_.value(); }

 private:
  Var weight_;  // [in,out]
  Var bias_;    // [out]
};

/// Token embedding table [V,D].
class Embedding : public Module {
 public:
  Embedding(int vocab, int dim, Rng* rng);

  Var Forward(const std::vector<int>& ids) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  const Tensor& weight_value() const { return weight_.value(); }

 private:
  Var weight_;
  int dim_;
};

/// Learnable layer normalization over the last dimension.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Var Forward(const Var& x) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  const Tensor& gamma_value() const { return gamma_.value(); }
  const Tensor& beta_value() const { return beta_.value(); }

 private:
  Var gamma_;
  Var beta_;
};

/// Position-wise feed-forward: Linear(d,h) -> ReLU -> Linear(h,d).
class FeedForward : public Module {
 public:
  FeedForward(int dim, int hidden, Rng* rng);

  Var Forward(const Var& x) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  const Linear& in_linear() const { return in_; }
  const Linear& out_linear() const { return out_; }

 private:
  Linear in_;
  Linear out_;
};

/// Sinusoidal position encodings added to embeddings (no parameters).
Tensor SinusoidalPositions(int length, int dim);

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_LAYERS_H_
