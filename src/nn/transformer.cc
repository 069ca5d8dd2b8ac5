#include "nn/transformer.h"

#include <algorithm>
#include <cassert>

#include "text/vocab.h"

namespace dtt {
namespace nn {

namespace {

constexpr float kMaskNegInf = -1e9f;

// Additive causal mask [tq, tk]: position i may not attend to j > i.
Tensor CausalMask(int tq, int tk) {
  Tensor mask({tq, tk});
  for (int i = 0; i < tq; ++i) {
    for (int j = i + 1; j < tk; ++j) mask.at(i, j) = kMaskNegInf;
  }
  return mask;
}

// Per-sequence additive key-length mask [B, tq, tk]: key positions at or
// beyond the sequence's true length are masked for every query row.
Tensor KeyLengthMask(const std::vector<int>& lengths, int tq, int tk) {
  const int batch = static_cast<int>(lengths.size());
  Tensor mask({batch, tq, tk});
  for (int b = 0; b < batch; ++b) {
    for (int i = 0; i < tq; ++i) {
      for (int j = lengths[static_cast<size_t>(b)]; j < tk; ++j) {
        mask.at(b, i, j) = kMaskNegInf;
      }
    }
  }
  return mask;
}

}  // namespace

PaddedBatch PaddedBatch::Pack(const std::vector<std::vector<int>>& seqs) {
  PaddedBatch batch;
  batch.lengths.reserve(seqs.size());
  for (const auto& s : seqs) {
    batch.lengths.push_back(static_cast<int>(s.size()));
    batch.padded_len = std::max(batch.padded_len, static_cast<int>(s.size()));
  }
  batch.flat.assign(seqs.size() * static_cast<size_t>(batch.padded_len),
                    Vocab::kPad);
  for (size_t b = 0; b < seqs.size(); ++b) {
    std::copy(seqs[b].begin(), seqs[b].end(),
              batch.flat.begin() + b * static_cast<size_t>(batch.padded_len));
  }
  return batch;
}

EncoderLayer::EncoderLayer(const TransformerConfig& cfg, Rng* rng)
    : ln1_(cfg.dim),
      self_attn_(cfg.dim, cfg.num_heads, rng),
      ln2_(cfg.dim),
      ff_(cfg.dim, cfg.ff_hidden, rng) {}

Var EncoderLayer::Forward(const Var& x) const {
  Var h = Add(x, self_attn_.Forward(ln1_.Forward(x), ln1_.Forward(x),
                                    /*causal=*/false));
  return Add(h, ff_.Forward(ln2_.Forward(h)));
}

Var EncoderLayer::ForwardBatch(const Var& x, int batch,
                               const Tensor* mask) const {
  Var n1 = ln1_.Forward(x);
  Var h = Add(x, self_attn_.ForwardBatch(n1, self_attn_.ProjectKv(n1), batch,
                                         mask));
  return Add(h, ff_.Forward(ln2_.Forward(h)));
}

void EncoderLayer::CollectParams(const std::string& prefix,
                                 std::vector<NamedParam>* out) {
  ln1_.CollectParams(prefix + ".ln1", out);
  self_attn_.CollectParams(prefix + ".self", out);
  ln2_.CollectParams(prefix + ".ln2", out);
  ff_.CollectParams(prefix + ".ff", out);
}

DecoderLayer::DecoderLayer(const TransformerConfig& cfg, Rng* rng)
    : ln1_(cfg.dim),
      self_attn_(cfg.dim, cfg.num_heads, rng),
      ln2_(cfg.dim),
      cross_attn_(cfg.dim, cfg.num_heads, rng),
      ln3_(cfg.dim),
      ff_(cfg.dim, cfg.ff_hidden, rng) {}

Var DecoderLayer::Forward(const Var& x, const Var& memory) const {
  Var n1 = ln1_.Forward(x);
  Var h = Add(x, self_attn_.Forward(n1, n1, /*causal=*/true));
  Var n2 = ln2_.Forward(h);
  h = Add(h, cross_attn_.Forward(n2, memory, /*causal=*/false));
  return Add(h, ff_.Forward(ln3_.Forward(h)));
}

MultiHeadAttention::KvCache DecoderLayer::PrecomputeCross(
    const Var& memory) const {
  return cross_attn_.ProjectKv(memory);
}

Var DecoderLayer::ForwardBatch(const Var& x, int batch,
                               const Tensor* self_mask,
                               const MultiHeadAttention::KvCache& cross_kv,
                               const Tensor* cross_mask) const {
  Var n1 = ln1_.Forward(x);
  Var h = Add(x, self_attn_.ForwardBatch(n1, self_attn_.ProjectKv(n1), batch,
                                         self_mask));
  Var n2 = ln2_.Forward(h);
  h = Add(h, cross_attn_.ForwardBatch(n2, cross_kv, batch, cross_mask));
  return Add(h, ff_.Forward(ln3_.Forward(h)));
}

void DecoderLayer::CollectParams(const std::string& prefix,
                                 std::vector<NamedParam>* out) {
  ln1_.CollectParams(prefix + ".ln1", out);
  self_attn_.CollectParams(prefix + ".self", out);
  ln2_.CollectParams(prefix + ".ln2", out);
  cross_attn_.CollectParams(prefix + ".cross", out);
  ln3_.CollectParams(prefix + ".ln3", out);
  ff_.CollectParams(prefix + ".ff", out);
}

Transformer::Transformer(TransformerConfig cfg, Rng* rng)
    : cfg_(cfg),
      embedding_(cfg.vocab_size, cfg.dim, rng),
      positions_(SinusoidalPositions(cfg.max_len, cfg.dim)),
      final_ln_(cfg.dim),
      lm_head_(cfg.dim, cfg.vocab_size, rng) {
  for (int i = 0; i < cfg.encoder_layers; ++i) {
    encoder_.push_back(std::make_unique<EncoderLayer>(cfg, rng));
  }
  for (int i = 0; i < cfg.decoder_layers; ++i) {
    decoder_.push_back(std::make_unique<DecoderLayer>(cfg, rng));
  }
}

Var Transformer::Embed(const std::vector<int>& ids) const {
  assert(static_cast<int>(ids.size()) <= cfg_.max_len);
  Var emb = embedding_.Forward(ids);
  // Add (constant) sinusoidal positions for the sequence prefix.
  Tensor pos({static_cast<int>(ids.size()), cfg_.dim});
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int j = 0; j < cfg_.dim; ++j) {
      pos.at(static_cast<int>(i), j) = positions_.at(static_cast<int>(i), j);
    }
  }
  return AddConst(emb, std::move(pos));
}

Var Transformer::EmbedBatch(const PaddedBatch& batch) const {
  assert(batch.padded_len <= cfg_.max_len);
  const int b = batch.batch();
  const int t = batch.padded_len;
  Var emb = embedding_.Forward(batch.flat);  // [B*T, D]
  Tensor pos({b * t, cfg_.dim});
  for (int s = 0; s < b; ++s) {
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < cfg_.dim; ++j) {
        pos.at(s * t + i, j) = positions_.at(i, j);
      }
    }
  }
  return AddConst(emb, std::move(pos));
}

Var Transformer::Encode(const std::vector<int>& input_ids) const {
  Var h = Embed(input_ids);
  for (const auto& layer : encoder_) {
    h = layer->Forward(h);
  }
  return h;
}

Var Transformer::EncodeBatch(const PaddedBatch& inputs) const {
  assert(inputs.batch() > 0);
  Var h = EmbedBatch(inputs);
  const bool any_padding =
      *std::min_element(inputs.lengths.begin(), inputs.lengths.end()) <
      inputs.padded_len;
  Tensor mask;
  if (any_padding) {
    mask = KeyLengthMask(inputs.lengths, inputs.padded_len, inputs.padded_len);
  }
  for (const auto& layer : encoder_) {
    h = layer->ForwardBatch(h, inputs.batch(), any_padding ? &mask : nullptr);
  }
  return h;
}

Var Transformer::DecodeLogits(const Var& memory,
                              const std::vector<int>& decoder_ids) const {
  Var h = Embed(decoder_ids);
  for (const auto& layer : decoder_) {
    h = layer->Forward(h, memory);
  }
  return lm_head_.Forward(final_ln_.Forward(h));
}

Var Transformer::DecodeHiddenBatch(
    const PaddedBatch& decoder_ids,
    const std::vector<MultiHeadAttention::KvCache>& cross_caches,
    const Tensor& cross_mask) const {
  assert(cross_caches.size() == decoder_.size());
  const int batch = decoder_ids.batch();
  Var h = EmbedBatch(decoder_ids);
  // The causal mask subsumes the decoder length mask: a valid query row i
  // (i < len_b) only sees keys j <= i, which are all valid; rows at padded
  // positions produce garbage that callers ignore.
  Tensor self_mask = CausalMask(decoder_ids.padded_len, decoder_ids.padded_len);
  for (size_t l = 0; l < decoder_.size(); ++l) {
    h = decoder_[l]->ForwardBatch(h, batch, &self_mask, cross_caches[l],
                                  &cross_mask);
  }
  return h;
}

Var Transformer::DecodeLogitsBatch(const Var& memory,
                                   const std::vector<int>& memory_lengths,
                                   const PaddedBatch& decoder_ids) const {
  const int batch = decoder_ids.batch();
  assert(batch > 0 && memory.value().rows() % batch == 0);
  const int mem_len = memory.value().rows() / batch;
  std::vector<MultiHeadAttention::KvCache> cross_caches;
  cross_caches.reserve(decoder_.size());
  for (const auto& layer : decoder_) {
    cross_caches.push_back(layer->PrecomputeCross(memory));
  }
  Tensor cross_mask =
      KeyLengthMask(memory_lengths, decoder_ids.padded_len, mem_len);
  Var h = DecodeHiddenBatch(decoder_ids, cross_caches, cross_mask);
  return lm_head_.Forward(final_ln_.Forward(h));
}

void Transformer::CollectParams(const std::string& prefix,
                                std::vector<NamedParam>* out) {
  embedding_.CollectParams(prefix + ".embed", out);
  for (size_t i = 0; i < encoder_.size(); ++i) {
    encoder_[i]->CollectParams(prefix + ".enc" + std::to_string(i), out);
  }
  for (size_t i = 0; i < decoder_.size(); ++i) {
    decoder_[i]->CollectParams(prefix + ".dec" + std::to_string(i), out);
  }
  final_ln_.CollectParams(prefix + ".final_ln", out);
  lm_head_.CollectParams(prefix + ".lm_head", out);
}

std::vector<NamedParam> Transformer::Params() {
  std::vector<NamedParam> params;
  CollectParams("model", &params);
  return params;
}

size_t Transformer::NumParameters() {
  size_t n = 0;
  for (const auto& p : Params()) n += p.var.value().size();
  return n;
}

}  // namespace nn
}  // namespace dtt
