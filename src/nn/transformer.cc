#include "nn/transformer.h"

#include <cassert>

namespace dtt {
namespace nn {

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

Var Transformer::Encode(const std::vector<int>& input_ids) const {
  Var h = Embed(input_ids);
  for (const auto& layer : encoder_) {
    h = layer->Forward(h);
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
