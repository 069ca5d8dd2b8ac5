#include "nn/attention.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace dtt {
namespace nn {

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads, Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  assert(dim % num_heads == 0);
}

Var MultiHeadAttention::Forward(const Var& query_input, const Var& kv_input,
                                bool causal) const {
  const int tq = query_input.value().rows();
  const int tk = kv_input.value().rows();
  Var q = wq_.Forward(query_input);  // [Tq,D]
  Var k = wk_.Forward(kv_input);     // [Tk,D]
  Var v = wv_.Forward(kv_input);     // [Tk,D]

  // Additive causal mask shared by all heads.
  Tensor mask;
  if (causal) {
    mask = Tensor({tq, tk});
    constexpr float kNegInf = -1e9f;
    for (int i = 0; i < tq; ++i) {
      for (int j = 0; j < tk; ++j) {
        if (j > i) mask.at(i, j) = kNegInf;
      }
    }
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Var> heads;
  heads.reserve(static_cast<size_t>(num_heads_));
  for (int h = 0; h < num_heads_; ++h) {
    Var qh = SliceCols(q, h * head_dim_, head_dim_);  // [Tq,dh]
    Var kh = SliceCols(k, h * head_dim_, head_dim_);  // [Tk,dh]
    Var vh = SliceCols(v, h * head_dim_, head_dim_);  // [Tk,dh]
    Var scores = Scale(MatMul(qh, Transpose(kh)), scale);  // [Tq,Tk]
    if (causal) scores = AddConst(scores, mask);
    Var attn = Softmax(scores);
    heads.push_back(MatMul(attn, vh));  // [Tq,dh]
  }
  Var merged = ConcatCols(heads);  // [Tq,D]
  return wo_.Forward(merged);
}

void MultiHeadAttention::CollectParams(const std::string& prefix,
                                       std::vector<NamedParam>* out) {
  wq_.CollectParams(prefix + ".wq", out);
  wk_.CollectParams(prefix + ".wk", out);
  wv_.CollectParams(prefix + ".wv", out);
  wo_.CollectParams(prefix + ".wo", out);
}

}  // namespace nn
}  // namespace dtt
