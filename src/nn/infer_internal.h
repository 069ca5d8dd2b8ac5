#ifndef DTT_NN_INFER_INTERNAL_H_
#define DTT_NN_INFER_INTERNAL_H_

// Shared row-wise kernels of the graph-free inference path: the unpadded
// encoder (Transformer::EncodeRows) and the one incremental decoder step
// (Transformer::DecodeStepRows, both in nn/infer.cc) that the beam engine
// (nn/beam.cc) and the decode session (nn/decode_session.cc, which also runs
// GenerateBatch) call.
//
// Every kernel mirrors its autograd counterpart operation-for-operation —
// same GEMM kernels (nn/gemm.h), same softmax, exp and ReLU kernels
// (SoftmaxRows, ExpRow and ReluRow in nn/softmax.h), same accumulation
// order, same normalization order — so logits produced through this path
// are bit-identical to the autograd DecodeLogits path. That identity is
// what lets the greedy and beam engines be checked bit-for-bit against the
// autograd references (tests/testing/reference_decode.h).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/softmax.h"
#include "nn/tensor.h"

namespace dtt {
namespace nn {
namespace internal {

/// One decoder layer's caches as Transformer::DecodeStepRows sees them: the
/// self-attention K/V it writes and attends over, and the cross-attention
/// K/V of the encoder memory it reads. All are row-major with rows of D
/// floats; rows address them by float offsets (DecodeScratch's bases).
struct DecoderLayerKv {
  float* self_k = nullptr;
  float* self_v = nullptr;
  const float* cross_k = nullptr;
  const float* cross_v = nullptr;
};

/// The caller-owned inputs and work buffers of Transformer::DecodeStepRows,
/// reused across steps. The caller points `layers` at its caches and adds
/// one row per sequence (or beam hypothesis) to advance.
struct DecodeScratch {
  std::vector<DecoderLayerKv> layers;  // one per decoder layer
  // Per row: the token fed at decoder position `positions[r]`, the float
  // offset of its self-cache slot, and its encoder-memory rows.
  std::vector<int> tokens;
  std::vector<int> positions;
  std::vector<size_t> self_bases;
  std::vector<size_t> cross_bases;
  std::vector<int> cross_lens;
  // Work buffers; `logits` [rows, V] is the step's result.
  std::vector<int> self_lens;
  std::vector<float> scores;
  Tensor x, n, q, k, v, ctx, attn_out, h1, h2, ff_mid, ff_out, logits;

  int rows() const { return static_cast<int>(tokens.size()); }

  void ClearRows() {
    tokens.clear();
    positions.clear();
    self_bases.clear();
    cross_bases.clear();
    cross_lens.clear();
  }

  void AddRow(int token, int position, size_t self_base, size_t cross_base,
              int cross_len) {
    tokens.push_back(token);
    positions.push_back(position);
    self_bases.push_back(self_base);
    cross_bases.push_back(cross_base);
    cross_lens.push_back(cross_len);
  }
};

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
/// into ctx [B, D]. All heads of a row share one SoftmaxRows call over a
/// [H, kv_len] score block; `scores_buf` is reused across calls.
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
    // Scaled dot-product scores of every head, [H, kv_len], then one
    // softmax over the H rows and a weighted value sum per head.
    scores_buf->resize(static_cast<size_t>(num_heads) * kv_len);
    float* scores = scores_buf->data();
    for (int h = 0; h < num_heads; ++h) {
      const int off = h * dh;
      float* srow = scores + static_cast<size_t>(h) * kv_len;
      for (int j = 0; j < kv_len; ++j) {
        const float* krow = krows + static_cast<size_t>(j) * d + off;
        float dot = 0.0f;
        for (int p = 0; p < dh; ++p) dot += qrow[off + p] * krow[p];
        srow[j] = dot * scale;
      }
    }
    SoftmaxRows(scores, num_heads, kv_len);
    for (int h = 0; h < num_heads; ++h) {
      const int off = h * dh;
      const float* srow = scores + static_cast<size_t>(h) * kv_len;
      // Weighted value sum in ascending keys, every term added.
      for (int j = 0; j < kv_len; ++j) {
        const float a = srow[j];
        const float* vrow = vrows + static_cast<size_t>(j) * d + off;
        for (int p = 0; p < dh; ++p) crow[off + p] += a * vrow[p];
      }
    }
  }
}

/// Bidirectional multi-head self-attention inside each packed sequence, the
/// encoder's attention without padding or a key-length mask. Sequence b
/// occupies rows offsets[b]..offsets[b+1]-1 of the projected q/k/v [N, D]
/// and attends only over those rows. Writes the merged head outputs
/// (pre-W_o) into ctx [N, D]; `scratch` is reused across calls.
///
/// Bit-identical to the autograd per-head MatMul(qh, Transpose(kh)) ->
/// Scale -> Softmax -> MatMul(attn, vh), because both products run through
/// GemmAcc itself. Per sequence and head, Q and V are gathered to [L, dh]
/// and K transposed to [dh, L]; then each block of 4 queries takes
/// GemmAcc's 4-row register tiles over the keys (16 or 8 keys wide, see
/// nn/gemm.h) into a zeroed score block (each score sums its products in
/// ascending p from 0), the scale and then SoftmaxRows, the Softmax op's
/// kernel, on the block, and GemmAcc's 4-row x dh-lane tiles (8- and 4-lane
/// vectors plus a scalar lane tail) over ascending keys into a zeroed output
/// block.
inline void AttendSequences(const Tensor& q, const Tensor& k, const Tensor& v,
                            const MultiHeadAttention& attn,
                            const std::vector<int>& offsets, Tensor* ctx,
                            std::vector<float>* scratch) {
  constexpr int kQueryBlock = 4;
  const int d = q.cols();
  const int num_heads = attn.num_heads();
  const int dh = attn.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  *ctx = Tensor({q.rows(), d});
  int max_len = 0;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    max_len = std::max(max_len, offsets[b + 1] - offsets[b]);
  }
  // Scratch: Q [max_len, dh], K^T [dh, max_len], V [max_len, dh], then one
  // block's scores [kQueryBlock, max_len] and outputs [kQueryBlock, dh].
  const size_t head_size = static_cast<size_t>(dh) * max_len;
  scratch->resize(3 * head_size +
                  static_cast<size_t>(kQueryBlock) * (max_len + dh));
  float* qh = scratch->data();
  float* kt = qh + head_size;
  float* vh = kt + head_size;
  float* scores = vh + head_size;
  float* out = scores + static_cast<size_t>(kQueryBlock) * max_len;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const int begin = offsets[b];
    const int len = offsets[b + 1] - begin;
    const float* qseq = q.data() + static_cast<size_t>(begin) * d;
    const float* kseq = k.data() + static_cast<size_t>(begin) * d;
    const float* vseq = v.data() + static_cast<size_t>(begin) * d;
    float* cseq = ctx->data() + static_cast<size_t>(begin) * d;
    for (int h = 0; h < num_heads; ++h) {
      const int off = h * dh;
      for (int j = 0; j < len; ++j) {
        const size_t row = static_cast<size_t>(j) * d + off;
        const size_t head_row = static_cast<size_t>(j) * dh;
        std::copy(qseq + row, qseq + row + dh, qh + head_row);
        std::copy(vseq + row, vseq + row + dh, vh + head_row);
        for (int p = 0; p < dh; ++p) {
          kt[static_cast<size_t>(p) * len + j] = kseq[row + p];
        }
      }
      for (int i0 = 0; i0 < len; i0 += kQueryBlock) {
        const int rows = std::min(kQueryBlock, len - i0);
        std::fill(scores, scores + static_cast<size_t>(rows) * len, 0.0f);
        GemmAcc(qh + static_cast<size_t>(i0) * dh, kt, scores, rows, dh, len);
        MulRow(scores, rows * len, scale);
        SoftmaxRows(scores, rows, len);
        std::fill(out, out + static_cast<size_t>(rows) * dh, 0.0f);
        GemmAcc(scores, vh, out, rows, len, dh);
        for (int r = 0; r < rows; ++r) {
          std::copy(out + static_cast<size_t>(r) * dh,
                    out + static_cast<size_t>(r + 1) * dh,
                    cseq + static_cast<size_t>(i0 + r) * d + off);
        }
      }
    }
  }
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_INFER_INTERNAL_H_
