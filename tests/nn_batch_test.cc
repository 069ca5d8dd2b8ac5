// Batched-vs-serial equivalence of the inference and training paths: the
// packed inference engines and the batch trainer must reproduce the
// single-sequence autograd code bit for bit.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "models/neural_model.h"
#include "nn/infer_internal.h"
#include "nn/trainer.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "testing/reference_decode.h"
#include "text/vocab.h"

namespace dtt {
namespace nn {

// Access to the private graph-free encoder.
struct TransformerPeer {
  static Tensor EncodeRows(const Transformer& model,
                           const std::vector<std::vector<int>>& prompts,
                           std::vector<int>* offsets) {
    return model.EncodeRows(prompts, offsets);
  }
};

}  // namespace nn

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

TEST(GenerateBatchTest, BitExactWithPerSequenceGreedyDecode) {
  Rng rng(41);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(42);
  // Mixed lengths, and two equal ones.
  std::vector<std::vector<int>> inputs = {
      RandomIds(12, &data_rng), RandomIds(5, &data_rng),
      RandomIds(23, &data_rng), RandomIds(12, &data_rng),
      RandomIds(1, &data_rng)};
  std::vector<std::vector<int>> batched = model.GenerateBatch(inputs, 24);
  ASSERT_EQ(batched.size(), inputs.size());
  for (size_t b = 0; b < inputs.size(); ++b) {
    EXPECT_EQ(batched[b], testing::GreedyDecode(model, inputs[b], 24))
        << "sequence " << b;
  }
}

TEST(GenerateBatchTest, SingleSequenceBatchMatchesSerial) {
  Rng rng(51);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(52);
  std::vector<int> input = RandomIds(14, &data_rng);
  std::vector<std::vector<int>> batched = model.GenerateBatch({input}, 16);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0], testing::GreedyDecode(model, input, 16));
}

TEST(GenerateBatchTest, EmptyBatchReturnsEmpty) {
  Rng rng(61);
  nn::Transformer model(TinyConfig(), &rng);
  EXPECT_TRUE(model.GenerateBatch({}, 8).empty());
}

// --- The model's hard length cap ------------------------------------------

// Every engine with a step budget at or above the model's max_len: decoding
// must stop where its oracle stops. Greedy stops once <sos> + output fills
// max_len (max_len - 1 tokens); beam runs at most max_len steps.
TEST(LengthCapTest, EveryEngineStopsAtTheModelLengthCapLikeItsOracle) {
  nn::TransformerConfig cfg = TinyConfig();
  cfg.max_len = 10;
  Rng rng(71);
  nn::Transformer model(cfg, &rng);
  Rng data_rng(72);
  std::vector<std::vector<int>> inputs;
  for (int len : {10, 3, 7, 1, 5}) inputs.push_back(RandomIds(len, &data_rng));
  const int max_steps = 16;

  std::vector<std::vector<int>> greedy;
  size_t capped = 0;
  for (const auto& ids : inputs) {
    greedy.push_back(testing::GreedyDecode(model, ids, max_steps));
    if (greedy.back().size() == static_cast<size_t>(cfg.max_len - 1)) {
      ++capped;
    }
  }
  ASSERT_GT(capped, 0u) << "no sequence reached the length cap";
  EXPECT_EQ(model.GenerateBatch(inputs, max_steps), greedy);

  // A session whose per-slot budgets all exceed the cap.
  auto session = model.NewDecodeSession({static_cast<int>(inputs.size()), 24});
  std::vector<int> budgets;
  std::vector<int> handles;
  for (size_t i = 0; i < inputs.size(); ++i) {
    budgets.push_back(12 + 3 * static_cast<int>(i));
    handles.push_back(session->Install(*session->Encode(inputs[i]),
                                       budgets.back()));
  }
  size_t finished = 0;
  for (int guard = 0; guard < 64 && finished < handles.size(); ++guard) {
    finished += session->Step().size();
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(session->output(handles[i]),
              testing::GreedyDecode(model, inputs[i], budgets[i]))
        << "sequence " << i;
  }

  // The reference BeamDecode is only defined up to max_steps == max_len (its
  // Embed asserts beyond), so it is the oracle for any larger budget.
  for (int width : {1, 3}) {
    const auto batched = model.BeamDecodeBatch(inputs, max_steps, width);
    ASSERT_EQ(batched.size(), inputs.size());
    size_t beam_capped = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(batched[i],
                testing::BeamDecode(model, inputs[i], cfg.max_len, width))
          << "width " << width << " sequence " << i;
      if (batched[i].size() == static_cast<size_t>(cfg.max_len)) {
        ++beam_capped;
      }
    }
    EXPECT_GT(beam_capped, 0u) << "width " << width;
  }
}

// --- Graph-free inference encoder -----------------------------------------

// Rows [row, row + count) of `t` compared bitwise with `expected`'s rows, so a
// -0.0/+0.0 flip fails.
bool RowsBitIdentical(const nn::Tensor& t, int row, const nn::Tensor& expected) {
  const size_t bytes = sizeof(float) * expected.size();
  return std::memcmp(t.data() + static_cast<size_t>(row) * t.cols(),
                     expected.data(), bytes) == 0;
}

// Checks EncodeRows over `inputs` against the serial Encode, bit for bit.
void ExpectEncodeRowsMatchesEncode(
    const nn::Transformer& model, const std::vector<std::vector<int>>& inputs) {
  std::vector<int> offsets;
  nn::Tensor packed = nn::TransformerPeer::EncodeRows(model, inputs, &offsets);
  ASSERT_EQ(offsets.size(), inputs.size() + 1);
  ASSERT_EQ(offsets[0], 0);
  for (size_t b = 0; b < inputs.size(); ++b) {
    ASSERT_EQ(offsets[b + 1] - offsets[b], static_cast<int>(inputs[b].size()));
  }
  const int dim = model.config().dim;
  ASSERT_EQ(packed.rows(), offsets.back());
  ASSERT_EQ(packed.cols(), dim);
  for (size_t b = 0; b < inputs.size(); ++b) {
    EXPECT_TRUE(RowsBitIdentical(packed, offsets[b],
                                 model.Encode(inputs[b]).value()))
        << "sequence " << b << " of length " << inputs[b].size();
  }
}

TEST(EncodeRowsTest, PackedRowsBitIdenticalToSerialEncode) {
  const nn::TransformerConfig cfg = TinyConfig();
  for (uint64_t seed : {111u, 112u, 113u}) {
    Rng rng(seed);
    nn::Transformer model(cfg, &rng);
    Rng data_rng(seed + 1000);
    std::vector<std::vector<int>> inputs;
    for (int len : {1, 2, 5, 17, cfg.max_len}) {
      inputs.push_back(RandomIds(len, &data_rng));
    }
    // A duplicated prompt, and a seeded order so the longest prompt is not
    // always last.
    inputs.push_back(inputs[2]);
    data_rng.Shuffle(&inputs);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectEncodeRowsMatchesEncode(model, inputs);
  }
}

TEST(EncodeRowsTest, GroupOfOneMatchesSerialEncode) {
  Rng rng(121);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(122);
  ExpectEncodeRowsMatchesEncode(model, {RandomIds(23, &data_rng)});
}

// The whole-sequence kernel against the per-row decode kernel, one query row
// at a time over the same keys and values. `offsets` packs the sequences;
// the default has lengths 1, 2, 5, 17, 0 and 6.
void ExpectAttendSequencesMatchesAttendRows(
    int dim, int num_heads,
    const std::vector<int>& offsets = {0, 1, 3, 8, 25, 25, 31}) {
  Rng rng(static_cast<uint64_t>(dim * 100 + num_heads));
  nn::MultiHeadAttention attn(dim, num_heads, &rng);
  const int rows = offsets.back();
  nn::Tensor q({rows, dim}), k({rows, dim}), v({rows, dim});
  for (nn::Tensor* t : {&q, &k, &v}) {
    for (size_t i = 0; i < t->size(); ++i) {
      // Every seventh entry an exact zero, to exercise the zero skips.
      t->data()[i] = i % 7 == 0 ? 0.0f : static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
    }
  }
  nn::Tensor ctx;
  std::vector<float> scratch;
  nn::internal::AttendSequences(q, k, v, attn, offsets, &ctx, &scratch);
  ASSERT_EQ(ctx.rows(), rows);
  ASSERT_EQ(ctx.cols(), dim);
  std::vector<float> scores_buf;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const int len = offsets[b + 1] - offsets[b];
    for (int i = offsets[b]; i < offsets[b + 1]; ++i) {
      nn::Tensor qrow({1, dim});
      std::memcpy(qrow.data(), q.data() + static_cast<size_t>(i) * dim,
                  sizeof(float) * dim);
      nn::Tensor expected;
      nn::internal::AttendRows(
          qrow, attn, k.data(), v.data(),
          {static_cast<size_t>(offsets[b]) * dim}, {len}, &expected,
          &scores_buf);
      EXPECT_TRUE(RowsBitIdentical(ctx, i, expected))
          << "dim " << dim << " heads " << num_heads << " row " << i;
    }
  }
}

TEST(AttendSequencesTest, BitIdenticalToAttendRowsPerQueryRow) {
  const nn::TransformerConfig cfg = TinyConfig();
  ExpectAttendSequencesMatchesAttendRows(cfg.dim, cfg.num_heads);
  // An odd head width (21 / 3 = 7).
  ExpectAttendSequencesMatchesAttendRows(21, 3);
  // The perfbench head width (48 / 4 = 12: an 8-lane and a 4-lane vector).
  ExpectAttendSequencesMatchesAttendRows(48, 4);
  // Lengths 2, 4, 5, 9, 17 and 150 sit on and one past the 4-query block
  // and the 8-key tile; 150 is a serialized DTT prompt.
  const std::vector<int> tile_edges = {0, 2, 6, 11, 20, 37, 187};
  ExpectAttendSequencesMatchesAttendRows(cfg.dim, cfg.num_heads, tile_edges);
  ExpectAttendSequencesMatchesAttendRows(21, 3, tile_edges);
  ExpectAttendSequencesMatchesAttendRows(48, 4, tile_edges);
}

// --- Trainer batching -------------------------------------------------------

std::vector<TrainingInstance> TrainingInstances() {
  // Varying input and label lengths.
  std::vector<TrainingInstance> instances;
  const char* rows[][2] = {{"abc-def", "DEF"}, {"ghi-jk", "JK"},
                           {"lmnop-qrstu", "QRSTU"}, {"v-w", "W"}};
  for (const auto& row : rows) {
    TrainingInstance inst;
    inst.context = {{"abc-def", "DEF"}, {"ghi-jk", "JK"}};
    inst.input_source = row[0];
    inst.label = row[1];
    instances.push_back(std::move(inst));
  }
  return instances;
}

nn::Seq2SeqTrainer MakeTrainer(nn::Transformer* model) {
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  nn::TrainerOptions topts;
  topts.batch_size = 4;
  return nn::Seq2SeqTrainer(model, Serializer(sopts), topts);
}

TEST(BatchTrainerTest, BatchLossMatchesMeanOfInstanceLosses) {
  Rng rng(71);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  double mean = 0.0;
  for (const auto& inst : instances) {
    float loss = trainer.InstanceLoss(inst, /*backprop=*/false);
    ASSERT_GE(loss, 0.0f);
    mean += loss;
  }
  mean /= static_cast<double>(instances.size());
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  int counted = 0;
  float batched = trainer.BatchLoss(batch, /*backprop=*/false, &counted);
  EXPECT_EQ(counted, static_cast<int>(instances.size()));
  EXPECT_NEAR(batched, static_cast<float>(mean), 1e-5f);
}

TEST(BatchTrainerTest, BatchGradientsMatchAccumulatedGradients) {
  Rng rng(81);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  // Accumulate per-instance gradients and snapshot them.
  for (const auto& inst : instances) {
    ASSERT_GE(trainer.InstanceLoss(inst, /*backprop=*/true), 0.0f);
  }
  std::vector<nn::Tensor> accumulated;
  for (auto& param : model.Params()) {
    ASSERT_TRUE(param.var.node()->HasGrad()) << param.name;
    accumulated.push_back(param.var.grad());
    param.var.node()->ZeroGrad();
  }
  // One BatchLoss backward over the same instances, in the same order.
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  ASSERT_GE(trainer.BatchLoss(batch, /*backprop=*/true), 0.0f);
  std::vector<nn::NamedParam> params = model.Params();
  ASSERT_EQ(params.size(), accumulated.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TENSOR_EQ(params[i].var.grad(), accumulated[i]) << params[i].name;
    params[i].var.node()->ZeroGrad();
  }
}

TEST(BatchTrainerTest, SkipsOverLengthInstances) {
  Rng rng(91);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  TrainingInstance too_long = instances[0];
  // The serializer truncates sources to the row budget, so overflow the
  // (untruncated) label instead: 100 bytes > max_label_tokens.
  too_long.label = std::string(100, 'x');
  instances.push_back(too_long);
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  int counted = 0;
  float loss = trainer.BatchLoss(batch, /*backprop=*/false, &counted);
  EXPECT_GE(loss, 0.0f);
  EXPECT_EQ(counted, static_cast<int>(instances.size()) - 1);
}

// --- Model-level batching ---------------------------------------------------

TEST(NeuralModelBatchTest, TransformBatchMatchesPerPromptTransform) {
  Rng rng(101);
  auto transformer =
      std::make_shared<nn::Transformer>(TinyConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 12;
  NeuralSeq2SeqModel model(transformer, Serializer(sopts), nopts);
  std::vector<Prompt> prompts;
  for (const char* src : {"alpha", "beta-gamma", "de", "epsilon"}) {
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

// Every greedy entry point of NeuralSeq2SeqModel — Transform,
// TransformBatch, and the stream decoder behind continuous batching
// (Prepare -> Admit -> Step) — checked on the same prompts against the
// autograd reference at each prompt's own budget, one of them below the
// model's max_output_tokens.
TEST(NeuralModelBatchTest, EveryGreedyEntryPointMatchesTheAutogradReference) {
  Rng rng(103);
  auto transformer = std::make_shared<nn::Transformer>(TinyConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  const Serializer serializer(sopts);
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 12;
  NeuralSeq2SeqModel model(transformer, serializer, nopts);
  std::vector<Prompt> prompts;
  for (const char* src : {"alpha", "beta-gamma", "de", "epsilon", "zeta"}) {
    Prompt p;
    p.examples = {{"abc", "xyz"}, {"mno", "pqr"}};
    p.source = src;
    prompts.push_back(std::move(p));
  }
  prompts[1].max_output_tokens = 4;   // below the model's maximum
  prompts[3].max_output_tokens = 40;  // clamped to the model's maximum
  const std::vector<int> budgets = {12, 4, 12, 12, 12};
  // The short budget must cut a decode that would otherwise run longer.
  ASSERT_GT(testing::GreedyDecode(*transformer,
                                  serializer.EncodePrompt(prompts[1]), 12)
                .size(),
            4u);
  ByteTokenizer tokenizer;
  std::vector<std::string> expected;
  for (size_t i = 0; i < prompts.size(); ++i) {
    expected.push_back(tokenizer.Decode(testing::GreedyDecode(
        *transformer, serializer.EncodePrompt(prompts[i]), budgets[i])));
  }

  const std::vector<Result<std::string>> batched =
      model.TransformBatch(prompts);
  ASSERT_EQ(batched.size(), prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    const Result<std::string> single = model.Transform(prompts[i]);
    ASSERT_TRUE(single.ok()) << "prompt " << i;
    EXPECT_EQ(single.value(), expected[i]) << "Transform, prompt " << i;
    ASSERT_TRUE(batched[i].ok()) << "prompt " << i;
    EXPECT_EQ(batched[i].value(), expected[i])
        << "TransformBatch, prompt " << i;
  }

  // Two slots for five prompts, so later prompts join mid-decode in rows
  // that earlier ones released.
  std::unique_ptr<TokenStreamDecoder> stream = model.NewStreamDecoder({2});
  ASSERT_NE(stream, nullptr);
  std::vector<std::string> streamed(prompts.size());
  std::map<int, size_t> resident;  // slot -> prompt index
  size_t next = 0;
  for (int guard = 0;
       guard < 256 && (next < prompts.size() || !resident.empty());
       ++guard) {
    std::vector<PreparedPrompt> group;
    std::vector<size_t> members;
    if (next < prompts.size() && stream->free_slots() > 0) {
      Result<PreparedPrompt> prepared = stream->Prepare(prompts[next]);
      ASSERT_TRUE(prepared.ok()) << "prompt " << next;
      group.push_back(std::move(prepared).value());
      members.push_back(next++);
    }
    const std::vector<int> slots = stream->Admit(group);
    for (size_t g = 0; g < slots.size(); ++g) resident[slots[g]] = members[g];
    for (const TokenStreamDecoder::Finished& done : stream->Step()) {
      streamed[resident.at(done.slot)] = done.output;
      resident.erase(done.slot);
    }
  }
  ASSERT_TRUE(resident.empty());
  for (size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i]) << "stream decoder, prompt " << i;
  }
}

// Prepare and Transform reject the same prompts with the same status.
TEST(NeuralModelBatchTest, PrepareAndTransformReportTheSameErrors) {
  Rng rng(104);
  auto transformer = std::make_shared<nn::Transformer>(TinyConfig(), &rng);
  // The serializer admits more tokens than the model's max_len (96), so a
  // long prompt is only caught by the length check.
  NeuralSeq2SeqModel model(transformer, Serializer(SerializerOptions{}));
  std::unique_ptr<TokenStreamDecoder> stream = model.NewStreamDecoder({1});
  ASSERT_NE(stream, nullptr);
  Prompt empty_context;
  empty_context.source = "alpha";
  Prompt over_length;
  over_length.examples = {{std::string(60, 'a'), std::string(60, 'b')}};
  over_length.source = std::string(60, 'c');
  for (const Prompt& prompt : {empty_context, over_length}) {
    const Result<std::string> transformed = model.Transform(prompt);
    const Result<PreparedPrompt> prepared = stream->Prepare(prompt);
    ASSERT_FALSE(transformed.ok());
    ASSERT_FALSE(prepared.ok());
    EXPECT_EQ(prepared.status().code(), transformed.status().code());
    EXPECT_EQ(prepared.status().message(), transformed.status().message());
  }
  EXPECT_EQ(model.Transform(empty_context).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Transform(over_length).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dtt
