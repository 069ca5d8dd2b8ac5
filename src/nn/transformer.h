#ifndef DTT_NN_TRANSFORMER_H_
#define DTT_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/decode_session.h"

namespace dtt {
namespace nn {

/// Hyper-parameters of the byte-level encoder-decoder transformer. Defaults
/// follow the ByT5 recipe in miniature: the encoder is deeper than the
/// decoder ("unbalanced architecture", §4.2: ByT5's encoder is 3x the
/// decoder depth).
struct TransformerConfig {
  int vocab_size = 261;   // Vocab::kSize
  int dim = 64;           // model width
  int num_heads = 4;
  int ff_hidden = 128;
  int encoder_layers = 3;
  int decoder_layers = 1;  // unbalanced 3:1 like ByT5
  int max_len = 512;
};

/// One pre-norm encoder block: LN -> self-attn -> +res, LN -> FF -> +res.
class EncoderLayer : public Module {
 public:
  EncoderLayer(const TransformerConfig& cfg, Rng* rng);

  Var Forward(const Var& x) const;
  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  /// Sub-module views for the graph-free inference encoder.
  const LayerNorm& ln1() const { return ln1_; }
  const MultiHeadAttention& self_attn() const { return self_attn_; }
  const LayerNorm& ln2() const { return ln2_; }
  const FeedForward& ff() const { return ff_; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention self_attn_;
  LayerNorm ln2_;
  FeedForward ff_;
};

/// One pre-norm decoder block: causal self-attn, cross-attn over encoder
/// memory, feed-forward; each with residual connections.
class DecoderLayer : public Module {
 public:
  DecoderLayer(const TransformerConfig& cfg, Rng* rng);

  Var Forward(const Var& x, const Var& memory) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  /// Sub-module views for the graph-free incremental decoder.
  const LayerNorm& ln1() const { return ln1_; }
  const MultiHeadAttention& self_attn() const { return self_attn_; }
  const LayerNorm& ln2() const { return ln2_; }
  const MultiHeadAttention& cross_attn() const { return cross_attn_; }
  const LayerNorm& ln3() const { return ln3_; }
  const FeedForward& ff() const { return ff_; }

 private:
  LayerNorm ln1_;
  MultiHeadAttention self_attn_;
  LayerNorm ln2_;
  MultiHeadAttention cross_attn_;
  LayerNorm ln3_;
  FeedForward ff_;
};

/// The full sequence-to-sequence model operating on token-id sequences.
/// The autograd graph (Encode/DecodeLogits) runs one unpadded sequence at a
/// time: it is the training path and the oracle of the graph-free batched
/// inference engines, which reproduce it bit for bit.
class Transformer : public Module {
 public:
  Transformer(TransformerConfig cfg, Rng* rng);

  /// Runs the encoder over the serialized prompt -> memory [Ts, D].
  Var Encode(const std::vector<int>& input_ids) const;

  /// Teacher-forcing decoder pass: given memory and decoder input ids
  /// (<sos> t1 .. tn), returns logits [n+1, V] predicting (t1 .. tn <eos>).
  Var DecodeLogits(const Var& memory, const std::vector<int>& decoder_ids) const;

  /// Batched greedy decoding until <eos> or `max_steps`; returns each
  /// prompt's generated ids (without <sos>/<eos>). A DecodeSession sized to
  /// the batch installs every prompt after one shared encoder pass, then
  /// steps until every sequence has finished. The only greedy engine:
  /// bit-exact with the autograd reference testing::GreedyDecode
  /// (tests/testing/reference_decode.h) for any batch composition.
  std::vector<std::vector<int>> GenerateBatch(
      const std::vector<std::vector<int>>& input_ids, int max_steps) const;

  /// Batched beam search on the graph-free incremental decoder: encodes all
  /// prompts once (identical prompts share one encoder pass and one
  /// cross-attention projection), then advances every live hypothesis of
  /// every prompt in lockstep with per-hypothesis self-attention KV caches,
  /// gathered by parent beam index after each prune/rerank. Returns the best
  /// hypothesis per prompt, bit-exact with the per-prompt autograd
  /// reference testing::BeamDecode for any beam width >= 1 and mix of
  /// prompt lengths. beam_size < 1 is treated as 1.
  std::vector<std::vector<int>> BeamDecodeBatch(
      const std::vector<std::vector<int>>& input_ids, int max_steps,
      int beam_size) const;

  /// Creates a step-resumable greedy decode session over this model: a
  /// persistent slotted KV-cache batch that sequences enter and leave
  /// mid-decode (continuous batching). Per-sequence outputs are bit-exact
  /// with GenerateBatch and testing::GreedyDecode for every admission
  /// schedule; see nn/decode_session.h.
  std::unique_ptr<DecodeSession> NewDecodeSession(
      DecodeSessionOptions options = {}) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  /// All parameters, named; stable order across runs.
  std::vector<NamedParam> Params();

  const TransformerConfig& config() const { return cfg_; }

  /// Total scalar parameter count.
  size_t NumParameters();

 private:
  friend class DecodeSession;
  friend struct TransformerPeer;  // test and bench access to EncodeRows

  TransformerConfig cfg_;
  Embedding embedding_;  // shared between encoder and decoder inputs
  Tensor positions_;     // precomputed sinusoidal table [max_len, D]
  std::vector<std::unique_ptr<EncoderLayer>> encoder_;
  std::vector<std::unique_ptr<DecoderLayer>> decoder_;
  LayerNorm final_ln_;
  Linear lm_head_;

  /// The graph-free, unpadded inference encoder shared by BeamDecodeBatch,
  /// DecodeSession::Encode and GenerateBatch's one group pass (nn/infer.cc).
  /// Returns the packed memory [sum of lengths, D]: prompt b's rows start at
  /// (*offsets)[b], and `offsets` gets one trailing entry, the total row
  /// count.
  /// Bit-identical to Encode, prompt by prompt.
  Tensor EncodeRows(const std::vector<std::vector<int>>& prompts,
                    std::vector<int>* offsets) const;

  /// The one incremental decoder step, shared by BeamDecodeBatch and
  /// DecodeSession::Step (nn/infer.cc). Row r of `scratch` embeds its token
  /// at its decoder position p, writes its self-attention K/V at position p
  /// of the slot at its self base, attends over positions 0..p of that slot
  /// and over its encoder-memory rows, and runs every decoder layer, the
  /// final LN and lm_head. Returns the logits [rows, V], owned by `scratch`.
  const Tensor& DecodeStepRows(internal::DecodeScratch* scratch) const;

  Var Embed(const std::vector<int>& ids) const;
};

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_TRANSFORMER_H_
