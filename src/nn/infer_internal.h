#ifndef DTT_NN_INFER_INTERNAL_H_
#define DTT_NN_INFER_INTERNAL_H_

// Shared row-wise kernels of the graph-free incremental decoder, used by the
// greedy engine (nn/infer.cc, Transformer::GenerateBatch), the beam engine
// (nn/beam.cc, Transformer::BeamDecodeBatch) and the step-resumable decoder
// (nn/decode_session.cc, DecodeSession).
//
// Every kernel mirrors its autograd counterpart operation-for-operation —
// same GEMM kernels (nn/gemm.h), same accumulation order, same normalization
// order — so logits produced through this path are bit-identical to the
// autograd DecodeLogits path. That identity is what lets the beam engine be
// checked bit-for-bit against the per-prompt BeamDecode reference.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace dtt {
namespace nn {
namespace internal {

/// out[rows, out_dim] = x[rows, in_dim] @ W + b, matching Linear::Forward
/// (full GEMM into a zero-filled output first, bias added after).
inline void AffineRows(const Tensor& x, const Linear& lin, Tensor* out) {
  const int rows = x.rows();
  const int in_dim = x.cols();
  const Tensor& w = lin.weight_value();
  const Tensor& b = lin.bias_value();
  const int out_dim = w.cols();
  assert(w.rows() == in_dim);
  *out = Tensor({rows, out_dim});
  GemmAcc(x.data(), w.data(), out->data(), rows, in_dim, out_dim);
  const float* bias = b.data();
  for (int i = 0; i < rows; ++i) {
    float* row = out->data() + static_cast<size_t>(i) * out_dim;
    for (int j = 0; j < out_dim; ++j) row[j] += bias[j];
  }
}

/// Row-wise layer norm matching LayerNormOp.
inline void LayerNormRows(const Tensor& x, const LayerNorm& ln, Tensor* out) {
  const int rows = x.rows();
  const int d = x.cols();
  const Tensor& gamma = ln.gamma_value();
  const Tensor& beta = ln.beta_value();
  constexpr float kEps = 1e-5f;
  *out = Tensor({rows, d});
  for (int i = 0; i < rows; ++i) {
    const float* row = x.data() + static_cast<size_t>(i) * d;
    float* orow = out->data() + static_cast<size_t>(i) * d;
    float mean = 0.0f;
    for (int j = 0; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int j = 0; j < d; ++j) {
      float c = row[j] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    float istd = 1.0f / std::sqrt(var + kEps);
    for (int j = 0; j < d; ++j) {
      orow[j] = gamma.at(j) * ((row[j] - mean) * istd) + beta.at(j);
    }
  }
}

/// Multi-head attention of one new query row per sequence over cached keys
/// and values. Row b's keys/values start at keys + kv_bases[b] (an offset in
/// floats, so distinct rows may share one cache block — beam hypotheses of
/// one prompt, or duplicate prompts sharing encoder memory); the attended
/// positions are 0..kv_lens[b]-1. Writes the merged head outputs (pre-W_o)
/// into ctx [B, D].
inline void AttendRows(const Tensor& q, const MultiHeadAttention& attn,
                       const float* keys, const float* values,
                       const std::vector<size_t>& kv_bases,
                       const std::vector<int>& kv_lens, Tensor* ctx,
                       std::vector<float>* scores_buf) {
  const int batch = q.rows();
  const int d = q.cols();
  const int num_heads = attn.num_heads();
  const int dh = attn.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  *ctx = Tensor({batch, d});
  for (int b = 0; b < batch; ++b) {
    const int kv_len = kv_lens[static_cast<size_t>(b)];
    const float* qrow = q.data() + static_cast<size_t>(b) * d;
    const float* krows = keys + kv_bases[static_cast<size_t>(b)];
    const float* vrows = values + kv_bases[static_cast<size_t>(b)];
    float* crow = ctx->data() + static_cast<size_t>(b) * d;
    scores_buf->resize(static_cast<size_t>(kv_len));
    for (int h = 0; h < num_heads; ++h) {
      const int off = h * dh;
      // Scaled dot-product scores over the cached positions, then a stable
      // softmax — the same max/exp/normalize order as the Softmax op.
      float* scores = scores_buf->data();
      for (int j = 0; j < kv_len; ++j) {
        const float* krow = krows + static_cast<size_t>(j) * d + off;
        float dot = 0.0f;
        for (int p = 0; p < dh; ++p) dot += qrow[off + p] * krow[p];
        scores[j] = dot * scale;
      }
      float mx = scores[0];
      for (int j = 1; j < kv_len; ++j) mx = std::max(mx, scores[j]);
      float sum = 0.0f;
      for (int j = 0; j < kv_len; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv = 1.0f / sum;
      for (int j = 0; j < kv_len; ++j) scores[j] *= inv;
      // Weighted value sum; skip exact zeros like GemmAcc does.
      for (int j = 0; j < kv_len; ++j) {
        const float a = scores[j];
        if (a == 0.0f) continue;
        const float* vrow = vrows + static_cast<size_t>(j) * d + off;
        for (int p = 0; p < dh; ++p) crow[off + p] += a * vrow[p];
      }
    }
  }
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_INFER_INTERNAL_H_
