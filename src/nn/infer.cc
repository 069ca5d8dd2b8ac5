// The graph-free inference path: the unpadded encoder
// (Transformer::EncodeRows), the one incremental decoder step every engine
// runs (Transformer::DecodeStepRows), and Transformer::GenerateBatch, which
// is a DecodeSession sized to its batch.
//
// Inference needs no gradients, so this path skips autograd entirely. The
// encoder runs over the prompts packed without padding; the decoder runs
// incrementally: each step feeds only the newly generated token of every
// row through the decoder, attending over per-layer key/value caches (self-
// attention) and the once-projected encoder memory (cross-attention). The
// row-wise kernels (nn/infer_internal.h) mirror the autograd ops
// operation-for-operation — same GEMM kernels (nn/gemm.h), same
// accumulation order — so the generated tokens are bit-exact with the
// autograd references in tests/testing/reference_decode.h: greedy with
// GreedyDecode (enforced by nn_batch_test), beam with BeamDecode
// (nn_beam_test).
#include <cassert>
#include <cstring>
#include <vector>

#include "nn/infer_internal.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtt {
namespace nn {

namespace {

using internal::AffineRows;
using internal::AttendRows;
using internal::AttendSequences;
using internal::LayerNormRows;
using internal::ReluRow;

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
// is exact: the row-wise ops never mix rows, and AttendSequences attends only
// within a prompt's own rows, so every prompt's rows come out the same bits
// as Encode over that prompt alone.
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
    ReluRow(ff_mid.data(), ff_mid.size());
    AffineRows(ff_mid, layer->ff().out_linear(), &ff_out);
    x.AddInPlace(ff_out);
  }
  return x;
}

// Each layer mirrors DecoderLayer::Forward op for op at the row's newest
// position, so the logits match the autograd DecodeLogits' last row.
const Tensor& Transformer::DecodeStepRows(
    internal::DecodeScratch* scratch) const {
  internal::DecodeScratch& s = *scratch;
  assert(s.layers.size() == decoder_.size());
  const int rows = s.rows();
  const int d = cfg_.dim;
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(d);
  // Embed each row's token at its own decoder position; the row attends
  // over its cached prefix, positions 0..position.
  s.x = Tensor({rows, d});
  s.self_lens.resize(static_cast<size_t>(rows));
  const Tensor& embed = embedding_.weight_value();
  for (int r = 0; r < rows; ++r) {
    const int pos = s.positions[static_cast<size_t>(r)];
    s.self_lens[static_cast<size_t>(r)] = pos + 1;
    const size_t token = static_cast<size_t>(s.tokens[static_cast<size_t>(r)]);
    const float* erow = embed.data() + token * d;
    float* xrow = s.x.data() + static_cast<size_t>(r) * d;
    for (int j = 0; j < d; ++j) xrow[j] = erow[j] + positions_.at(pos, j);
  }

  for (size_t l = 0; l < decoder_.size(); ++l) {
    const DecoderLayer& layer = *decoder_[l];
    const internal::DecoderLayerKv& kv = s.layers[l];
    // Self-attention over the cached prefix, after caching this step's K/V
    // at each row's own position.
    LayerNormRows(s.x, layer.ln1(), &s.n);
    AffineRows(s.n, layer.self_attn().wq(), &s.q);
    AffineRows(s.n, layer.self_attn().wk(), &s.k);
    AffineRows(s.n, layer.self_attn().wv(), &s.v);
    for (int r = 0; r < rows; ++r) {
      const size_t dst =
          s.self_bases[static_cast<size_t>(r)] +
          static_cast<size_t>(s.positions[static_cast<size_t>(r)]) * d;
      const size_t src = static_cast<size_t>(r) * d;
      std::memcpy(kv.self_k + dst, s.k.data() + src, row_bytes);
      std::memcpy(kv.self_v + dst, s.v.data() + src, row_bytes);
    }
    AttendRows(s.q, layer.self_attn(), kv.self_k, kv.self_v, s.self_bases,
               s.self_lens, &s.ctx, &s.scores);
    AffineRows(s.ctx, layer.self_attn().wo(), &s.attn_out);
    s.h1 = s.x;
    s.h1.AddInPlace(s.attn_out);
    // Cross-attention over the row's valid encoder memory rows.
    LayerNormRows(s.h1, layer.ln2(), &s.n);
    AffineRows(s.n, layer.cross_attn().wq(), &s.q);
    AttendRows(s.q, layer.cross_attn(), kv.cross_k, kv.cross_v,
               s.cross_bases, s.cross_lens, &s.ctx, &s.scores);
    AffineRows(s.ctx, layer.cross_attn().wo(), &s.attn_out);
    s.h2 = s.h1;
    s.h2.AddInPlace(s.attn_out);
    // Position-wise feed-forward.
    LayerNormRows(s.h2, layer.ln3(), &s.n);
    AffineRows(s.n, layer.ff().in_linear(), &s.ff_mid);
    ReluRow(s.ff_mid.data(), s.ff_mid.size());
    AffineRows(s.ff_mid, layer.ff().out_linear(), &s.ff_out);
    s.x = s.h2;
    s.x.AddInPlace(s.ff_out);
  }

  LayerNormRows(s.x, final_ln_, &s.n);
  AffineRows(s.n, lm_head_, &s.logits);
  return s.logits;
}

std::vector<std::vector<int>> Transformer::GenerateBatch(
    const std::vector<std::vector<int>>& input_ids, int max_steps) const {
  const int batch = static_cast<int>(input_ids.size());
  std::vector<std::vector<int>> generated(input_ids.size());
  if (batch == 0 || max_steps <= 0) return generated;
  const DecodeMetrics& metrics = DecodeMetrics::Get();
  metrics.calls->Increment();
  metrics.rows->Add(batch);
  metrics.batch_size->Record(batch);
  obs::TraceSpan span("nn", "nn.generate_batch");
  if (span.enabled()) {
    span.Arg("batch", static_cast<int64_t>(batch));
    span.Arg("max_steps", static_cast<int64_t>(max_steps));
  }
  // One slot per prompt, filled through one shared encoder pass.
  DecodeSession session(this, {batch, max_steps});
  std::vector<int> handles;
  handles.reserve(input_ids.size());
  for (const auto& prompt : session.EncodeGroup(input_ids)) {
    handles.push_back(session.Install(*prompt));
  }
  // Step until every sequence has finished; Step() reports each one once.
  int active = batch;
  int steps_run = 0;
  while (active > 0) {
    obs::TraceSpan step_span("nn", "nn.generate_step");
    if (step_span.enabled()) {
      step_span.Arg("step", static_cast<int64_t>(steps_run));
      step_span.Arg("active", static_cast<int64_t>(active));
    }
    active -= static_cast<int>(session.Step().size());
    ++steps_run;
  }
  for (size_t b = 0; b < handles.size(); ++b) {
    generated[b] = session.output(handles[b]);
  }
  metrics.steps->Add(steps_run);
  span.Arg("steps", static_cast<int64_t>(steps_run));
  return generated;
}

}  // namespace nn
}  // namespace dtt
