#include "nn/layers.h"

#include <cmath>

namespace dtt {
namespace nn {

Linear::Linear(int in_dim, int out_dim, Rng* rng)
    : weight_(Var::XavierParam(in_dim, out_dim, rng)),
      bias_(Var::Leaf(Tensor({out_dim}), /*requires_grad=*/true)) {}

Var Linear::Forward(const Var& x) const {
  return AddRowBroadcast(MatMul(x, weight_), bias_);
}

void Linear::CollectParams(const std::string& prefix,
                           std::vector<NamedParam>* out) {
  out->push_back({prefix + ".weight", weight_});
  out->push_back({prefix + ".bias", bias_});
}

Embedding::Embedding(int vocab, int dim, Rng* rng)
    : weight_(Var::GaussianParam({vocab, dim}, 0.02f, rng)), dim_(dim) {}

Var Embedding::Forward(const std::vector<int>& ids) const {
  return EmbeddingGather(weight_, ids);
}

void Embedding::CollectParams(const std::string& prefix,
                              std::vector<NamedParam>* out) {
  out->push_back({prefix + ".weight", weight_});
}

LayerNorm::LayerNorm(int dim)
    : gamma_(Var::Leaf(Tensor::Full({dim}, 1.0f), /*requires_grad=*/true)),
      beta_(Var::Leaf(Tensor({dim}), /*requires_grad=*/true)) {}

Var LayerNorm::Forward(const Var& x) const {
  return LayerNormOp(x, gamma_, beta_);
}

void LayerNorm::CollectParams(const std::string& prefix,
                              std::vector<NamedParam>* out) {
  out->push_back({prefix + ".gamma", gamma_});
  out->push_back({prefix + ".beta", beta_});
}

FeedForward::FeedForward(int dim, int hidden, Rng* rng)
    : in_(dim, hidden, rng), out_(hidden, dim, rng) {}

Var FeedForward::Forward(const Var& x) const {
  return out_.Forward(Relu(in_.Forward(x)));
}

void FeedForward::CollectParams(const std::string& prefix,
                                std::vector<NamedParam>* out) {
  in_.CollectParams(prefix + ".ff_in", out);
  out_.CollectParams(prefix + ".ff_out", out);
}

Tensor SinusoidalPositions(int length, int dim) {
  Tensor pos({length, dim});
  for (int t = 0; t < length; ++t) {
    for (int i = 0; i < dim; ++i) {
      double rate = std::pow(10000.0, -2.0 * (i / 2) / static_cast<double>(dim));
      double angle = t * rate;
      pos.at(t, i) = static_cast<float>((i % 2 == 0) ? std::sin(angle)
                                                     : std::cos(angle));
    }
  }
  return pos;
}

}  // namespace nn
}  // namespace dtt
