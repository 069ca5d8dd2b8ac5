// The graph-free inference encoder (Transformer::EncodeRows) and the batched
// greedy engine behind Transformer::GenerateBatch.
//
// Inference needs no gradients, so this path skips autograd entirely. The
// encoder runs over the prompts packed without padding; the decoder runs
// incrementally: each step feeds only the newly generated token
// through the decoder, attending over per-layer key/value caches (self-
// attention) and the once-projected encoder memory (cross-attention). The
// row-wise kernels live in nn/infer_internal.h (shared with the beam engine
// in nn/beam.cc); they mirror the autograd ops operation-for-operation —
// same GEMM kernels (nn/gemm.h), same accumulation order — so the generated
// tokens are bit-exact with the per-sequence GreedyDecode (enforced by
// nn_batch_test).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "nn/infer_internal.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/vocab.h"

namespace dtt {
namespace nn {

namespace {

using internal::AffineRows;
using internal::AttendRows;
using internal::AttendSequences;
using internal::LayerNormRows;

// One decoder layer's incremental state: self-attention K/V per generated
// position, cross-attention K/V of the encoder memory (projected once).
struct LayerState {
  Tensor self_k;   // [B, cap, D]
  Tensor self_v;   // [B, cap, D]
  Tensor cross_k;  // [sum of prompt lengths, D]
  Tensor cross_v;  // [sum of prompt lengths, D]
};

// Process-wide decode counters/histograms, resolved once. Purely
// observational: recording never feeds back into the decode.
struct DecodeMetrics {
  obs::Counter* calls;
  obs::Counter* rows;
  obs::Counter* steps;
  obs::Histogram* batch_size;
  static const DecodeMetrics& Get() {
    static const DecodeMetrics m{
        obs::GlobalMetrics().GetCounter("nn.generate.calls"),
        obs::GlobalMetrics().GetCounter("nn.generate.rows"),
        obs::GlobalMetrics().GetCounter("nn.generate.steps"),
        obs::GlobalMetrics().GetHistogram("nn.generate.batch_size"),
    };
    return m;
  }
};

}  // namespace

// Each step mirrors EncoderLayer::Forward op for op. Packing without padding
// is exact: in EncodeBatch a padded key gets -1e9 added, so its softmax
// weight is exactly 0.0f — it adds +0 to the softmax sum and is skipped by
// the value GEMM — and every valid row comes out the same bits as here.
Tensor Transformer::EncodeRows(const std::vector<std::vector<int>>& prompts,
                               std::vector<int>* offsets) const {
  offsets->assign(1, 0);
  for (const std::vector<int>& ids : prompts) {
    assert(static_cast<int>(ids.size()) <= cfg_.max_len);
    offsets->push_back(offsets->back() + static_cast<int>(ids.size()));
  }
  const int rows = offsets->back();
  obs::TraceSpan span("nn", "nn.encode");
  if (span.enabled()) {
    span.Arg("prompts", static_cast<int64_t>(prompts.size()));
    span.Arg("tokens", static_cast<int64_t>(rows));
  }
  const int d = cfg_.dim;
  // Token embedding plus the sinusoidal position within each prompt.
  Tensor x({rows, d});
  const Tensor& embed = embedding_.weight_value();
  for (size_t b = 0; b < prompts.size(); ++b) {
    float* xrow = x.data() + static_cast<size_t>((*offsets)[b]) * d;
    for (size_t i = 0; i < prompts[b].size(); ++i, xrow += d) {
      const float* erow =
          embed.data() + static_cast<size_t>(prompts[b][i]) * d;
      for (int j = 0; j < d; ++j) {
        xrow[j] = erow[j] + positions_.at(static_cast<int>(i), j);
      }
    }
  }
  Tensor n, q, k, v, ctx, attn_out, ff_mid, ff_out;
  std::vector<float> scratch;
  for (const auto& layer : encoder_) {
    const MultiHeadAttention& attn = layer->self_attn();
    LayerNormRows(x, layer->ln1(), &n);
    AffineRows(n, attn.wq(), &q);
    AffineRows(n, attn.wk(), &k);
    AffineRows(n, attn.wv(), &v);
    AttendSequences(q, k, v, attn, *offsets, &ctx, &scratch);
    AffineRows(ctx, attn.wo(), &attn_out);
    x.AddInPlace(attn_out);
    LayerNormRows(x, layer->ln2(), &n);
    AffineRows(n, layer->ff().in_linear(), &ff_mid);
    for (size_t i = 0; i < ff_mid.size(); ++i) {
      if (ff_mid.data()[i] < 0.0f) ff_mid.data()[i] = 0.0f;
    }
    AffineRows(ff_mid, layer->ff().out_linear(), &ff_out);
    x.AddInPlace(ff_out);
  }
  return x;
}

std::vector<std::vector<int>> Transformer::GenerateBatch(
    const std::vector<std::vector<int>>& input_ids, int max_steps) const {
  const int batch = static_cast<int>(input_ids.size());
  if (batch == 0 || max_steps <= 0) {
    return std::vector<std::vector<int>>(input_ids.size());
  }
  const DecodeMetrics& metrics = DecodeMetrics::Get();
  metrics.calls->Increment();
  metrics.rows->Add(batch);
  metrics.batch_size->Record(batch);
  obs::TraceSpan span("nn", "nn.generate_batch");
  if (span.enabled()) {
    span.Arg("batch", static_cast<int64_t>(batch));
    span.Arg("max_steps", static_cast<int64_t>(max_steps));
  }
  // The encoder runs once over the packed prompts.
  std::vector<int> offsets;
  const Tensor memory = EncodeRows(input_ids, &offsets);
  const int d = cfg_.dim;

  // Decoder positions are bounded by both the step budget and the model's
  // hard length limit (<sos> occupies position 0).
  const int cap = std::min(max_steps + 1, cfg_.max_len);
  std::vector<LayerState> layers(decoder_.size());
  for (size_t l = 0; l < decoder_.size(); ++l) {
    layers[l].self_k = Tensor({batch, cap, d});
    layers[l].self_v = Tensor({batch, cap, d});
    const MultiHeadAttention& cross = decoder_[l]->cross_attn();
    AffineRows(memory, cross.wk(), &layers[l].cross_k);
    AffineRows(memory, cross.wv(), &layers[l].cross_v);
  }

  // Every sequence owns one fixed cache slot, so the per-row base offsets
  // into the self and cross caches never change across steps.
  const size_t self_stride = static_cast<size_t>(cap) * d;
  std::vector<size_t> self_bases(static_cast<size_t>(batch));
  std::vector<size_t> cross_bases(static_cast<size_t>(batch));
  std::vector<int> cross_lens(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    const size_t i = static_cast<size_t>(b);
    self_bases[i] = i * self_stride;
    cross_bases[i] = static_cast<size_t>(offsets[i]) * d;
    cross_lens[i] = offsets[i + 1] - offsets[i];
  }

  std::vector<std::vector<int>> generated(static_cast<size_t>(batch));
  std::vector<bool> done(static_cast<size_t>(batch), false);
  std::vector<int> tokens(static_cast<size_t>(batch), Vocab::kSos);
  std::vector<int> self_lens(static_cast<size_t>(batch), 0);
  std::vector<float> scores_buf;
  Tensor x({batch, d});
  Tensor n, q, k, v, ctx, attn_out, h1, h2, ff_mid, ff_out, logits;

  const Tensor& embed = embedding_.weight_value();
  int steps_run = 0;
  for (int step = 0; step < max_steps; ++step) {
    ++steps_run;
    obs::TraceSpan step_span("nn", "nn.generate_step");
    if (step_span.enabled()) {
      int active = 0;
      for (int b = 0; b < batch; ++b) {
        if (!done[static_cast<size_t>(b)]) ++active;
      }
      step_span.Arg("step", static_cast<int64_t>(step));
      step_span.Arg("active", static_cast<int64_t>(active));
    }
    // Embed the current token (position `step`) of every sequence.
    for (int b = 0; b < batch; ++b) {
      const float* erow =
          embed.data() +
          static_cast<size_t>(tokens[static_cast<size_t>(b)]) * d;
      float* xrow = x.data() + static_cast<size_t>(b) * d;
      for (int j = 0; j < d; ++j) xrow[j] = erow[j] + positions_.at(step, j);
    }
    for (int b = 0; b < batch; ++b) self_lens[static_cast<size_t>(b)] = step + 1;

    for (size_t l = 0; l < decoder_.size(); ++l) {
      const DecoderLayer& layer = *decoder_[l];
      LayerState& state = layers[l];
      // Self-attention over the cached prefix (positions 0..step).
      LayerNormRows(x, layer.ln1(), &n);
      AffineRows(n, layer.self_attn().wq(), &q);
      AffineRows(n, layer.self_attn().wk(), &k);
      AffineRows(n, layer.self_attn().wv(), &v);
      for (int b = 0; b < batch; ++b) {
        float* kdst = state.self_k.data() + b * self_stride +
                      static_cast<size_t>(step) * d;
        float* vdst = state.self_v.data() + b * self_stride +
                      static_cast<size_t>(step) * d;
        const float* krow = k.data() + static_cast<size_t>(b) * d;
        const float* vrow = v.data() + static_cast<size_t>(b) * d;
        for (int j = 0; j < d; ++j) {
          kdst[j] = krow[j];
          vdst[j] = vrow[j];
        }
      }
      AttendRows(q, layer.self_attn(), state.self_k.data(),
                 state.self_v.data(), self_bases, self_lens, &ctx,
                 &scores_buf);
      AffineRows(ctx, layer.self_attn().wo(), &attn_out);
      h1 = x;
      h1.AddInPlace(attn_out);
      // Cross-attention over the valid encoder memory rows.
      LayerNormRows(h1, layer.ln2(), &n);
      AffineRows(n, layer.cross_attn().wq(), &q);
      AttendRows(q, layer.cross_attn(), state.cross_k.data(),
                 state.cross_v.data(), cross_bases, cross_lens, &ctx,
                 &scores_buf);
      AffineRows(ctx, layer.cross_attn().wo(), &attn_out);
      h2 = h1;
      h2.AddInPlace(attn_out);
      // Position-wise feed-forward.
      LayerNormRows(h2, layer.ln3(), &n);
      AffineRows(n, layer.ff().in_linear(), &ff_mid);
      for (size_t i = 0; i < ff_mid.size(); ++i) {
        if (ff_mid.data()[i] < 0.0f) ff_mid.data()[i] = 0.0f;
      }
      AffineRows(ff_mid, layer.ff().out_linear(), &ff_out);
      x = h2;
      x.AddInPlace(ff_out);
    }

    LayerNormRows(x, final_ln_, &n);
    AffineRows(n, lm_head_, &logits);  // [B, V]
    bool all_done = true;
    for (int b = 0; b < batch; ++b) {
      if (done[static_cast<size_t>(b)]) {
        tokens[static_cast<size_t>(b)] = Vocab::kPad;
        continue;
      }
      const float* row = logits.data() + static_cast<size_t>(b) * logits.cols();
      int best = 0;
      float best_v = row[0];
      for (int j = 1; j < logits.cols(); ++j) {
        if (row[j] > best_v) {
          best_v = row[j];
          best = j;
        }
      }
      if (best == Vocab::kEos) {
        done[static_cast<size_t>(b)] = true;
        tokens[static_cast<size_t>(b)] = Vocab::kPad;
        continue;
      }
      generated[static_cast<size_t>(b)].push_back(best);
      tokens[static_cast<size_t>(b)] = best;
      // The serial decode stops once the prefix (<sos> + generated) fills
      // max_len; position step+1 would be out of range.
      if (step + 2 >= cfg_.max_len) {
        done[static_cast<size_t>(b)] = true;
      } else {
        all_done = false;
      }
    }
    if (all_done) break;
  }
  metrics.steps->Add(steps_run);
  span.Arg("steps", static_cast<int64_t>(steps_run));
  return generated;
}

}  // namespace nn
}  // namespace dtt
