// Bit-exactness of the batched KV-cache beam engine against the retained
// per-prompt autograd BeamDecode reference: beam widths {1, 2, 4}, mixed
// prompt lengths, duplicate prompts (shared encoder memory), long
// decodes that force repeated KV-cache gathers after pruning/reranking, and
// the model-level beam TransformBatch path.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "models/neural_model.h"
#include "nn/transformer.h"
#include "testing/reference_decode.h"
#include "text/vocab.h"

namespace dtt {
namespace {

nn::TransformerConfig TinyConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 96;
  return cfg;
}

std::vector<int> RandomIds(int len, Rng* rng) {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    ids.push_back(Vocab::ByteToken(
        static_cast<uint8_t>(rng->NextBounded(256))));
  }
  return ids;
}

// Mixed lengths, a repeated length, and an exact duplicate that exercises
// the shared-encoder-memory (prompt dedup) path.
std::vector<std::vector<int>> MixedPrompts(Rng* rng) {
  std::vector<std::vector<int>> prompts = {
      RandomIds(11, rng), RandomIds(4, rng), RandomIds(21, rng),
      RandomIds(11, rng), RandomIds(1, rng)};
  prompts.push_back(prompts[2]);  // duplicate of the longest prompt
  return prompts;
}

TEST(BeamDecodeBatchTest, BitExactWithPerPromptBeamDecodeAcrossWidths) {
  Rng rng(211);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(212);
  std::vector<std::vector<int>> prompts = MixedPrompts(&data_rng);
  for (int width : {1, 2, 4}) {
    std::vector<std::vector<int>> batched =
        model.BeamDecodeBatch(prompts, 16, width);
    ASSERT_EQ(batched.size(), prompts.size());
    for (size_t p = 0; p < prompts.size(); ++p) {
      EXPECT_EQ(batched[p], testing::BeamDecode(model, prompts[p], 16, width))
          << "width " << width << " prompt " << p;
    }
  }
}

TEST(BeamDecodeBatchTest, DuplicatePromptsShareOneDecode) {
  Rng rng(221);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(222);
  std::vector<int> prompt = RandomIds(13, &data_rng);
  std::vector<std::vector<int>> batched =
      model.BeamDecodeBatch({prompt, prompt, prompt}, 12, 3);
  ASSERT_EQ(batched.size(), 3u);
  const std::vector<int> reference = testing::BeamDecode(model, prompt, 12, 3);
  for (size_t p = 0; p < batched.size(); ++p) {
    EXPECT_EQ(batched[p], reference) << "duplicate " << p;
  }
}

// A long decode at width 4 keeps several hypotheses alive for many steps, so
// the per-step gather-on-beam-index must repeatedly rebuild the KV caches
// after pruning and reranking; any mis-gathered prefix diverges from the
// reference within a step or two.
TEST(BeamDecodeBatchTest, KvReorderStaysExactOverLongDecodes) {
  Rng rng(231);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(232);
  std::vector<std::vector<int>> prompts = {RandomIds(9, &data_rng),
                                           RandomIds(17, &data_rng)};
  std::vector<std::vector<int>> batched =
      model.BeamDecodeBatch(prompts, 48, 4);
  for (size_t p = 0; p < prompts.size(); ++p) {
    EXPECT_EQ(batched[p], testing::BeamDecode(model, prompts[p], 48, 4))
        << "prompt " << p;
  }
}

TEST(BeamDecodeBatchTest, WidthOneMatchesGreedyDecode) {
  Rng rng(241);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(242);
  // Width-1 beam search picks the argmax token each step (log-softmax is
  // monotone in the logits), so it must reproduce greedy decoding.
  std::vector<std::vector<int>> prompts = {RandomIds(8, &data_rng),
                                           RandomIds(15, &data_rng)};
  std::vector<std::vector<int>> batched =
      model.BeamDecodeBatch(prompts, 20, 1);
  for (size_t p = 0; p < prompts.size(); ++p) {
    EXPECT_EQ(batched[p], testing::GreedyDecode(model, prompts[p], 20))
        << "prompt " << p;
  }
}

TEST(BeamDecodeBatchTest, EdgeCases) {
  Rng rng(251);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(252);
  EXPECT_TRUE(model.BeamDecodeBatch({}, 8, 2).empty());
  std::vector<int> prompt = RandomIds(6, &data_rng);
  // max_steps <= 0 decodes nothing, like the reference.
  std::vector<std::vector<int>> none = model.BeamDecodeBatch({prompt}, 0, 2);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].empty());
  // A single-prompt batch is the common Transform path.
  EXPECT_EQ(model.BeamDecodeBatch({prompt}, 10, 2)[0],
            testing::BeamDecode(model, prompt, 10, 2));
  // beam_size < 1 clamps to 1 instead of inheriting the reference's UB.
  EXPECT_EQ(model.BeamDecodeBatch({prompt}, 10, 0)[0],
            testing::BeamDecode(model, prompt, 10, 1));
}

// Model-level wiring: with beam_size > 1 the batched TransformBatch must
// reproduce the per-prompt Transform outputs (and per-prompt errors).
TEST(NeuralModelBeamTest, TransformBatchMatchesPerPromptTransform) {
  Rng rng(261);
  auto transformer = std::make_shared<nn::Transformer>(TinyConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 12;
  nopts.beam_size = 3;
  NeuralSeq2SeqModel model(transformer, Serializer(sopts), nopts);
  std::vector<Prompt> prompts;
  for (const char* src : {"alpha", "beta-gamma", "de", "alpha"}) {
    Prompt p;
    p.examples = {{"abc", "xyz"}, {"mno", "pqr"}};
    p.source = src;
    prompts.push_back(std::move(p));
  }
  Prompt invalid;  // no examples -> InvalidArgument in both paths
  prompts.push_back(invalid);
  std::vector<Result<std::string>> batched = model.TransformBatch(prompts);
  ASSERT_EQ(batched.size(), prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    Result<std::string> serial = model.Transform(prompts[i]);
    ASSERT_EQ(batched[i].ok(), serial.ok()) << "prompt " << i;
    if (serial.ok()) {
      EXPECT_EQ(batched[i].value(), serial.value()) << "prompt " << i;
    } else {
      EXPECT_EQ(batched[i].status().code(), serial.status().code());
    }
  }
}

}  // namespace
}  // namespace dtt
