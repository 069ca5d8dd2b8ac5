#include "nn/transformer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "io/model_artifact.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "testing/matchers.h"
#include "testing/reference_decode.h"
#include "testing/temp_dir.h"
#include "text/vocab.h"

namespace dtt {
namespace nn {
namespace {

TransformerConfig TinyConfig() {
  TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;
  return cfg;
}

TEST(LayersTest, LinearShapes) {
  Rng rng(1);
  Linear linear(4, 3, &rng);
  Var x = Var::Leaf(Tensor({2, 4}), false);
  Var y = linear.Forward(x);
  EXPECT_EQ(y.value().rows(), 2);
  EXPECT_EQ(y.value().cols(), 3);
}

TEST(LayersTest, SinusoidalPositionsBounded) {
  Tensor pos = SinusoidalPositions(10, 8);
  for (size_t i = 0; i < pos.size(); ++i) {
    EXPECT_LE(std::fabs(pos.data()[i]), 1.0f);
  }
  // Different positions get different encodings.
  bool differs = false;
  for (int j = 0; j < 8; ++j) {
    if (pos.at(0, j) != pos.at(5, j)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(AttentionTest, OutputShapePreserved) {
  Rng rng(2);
  MultiHeadAttention attn(16, 4, &rng);
  Var x = Var::Leaf(Tensor({5, 16}), false);
  Var y = attn.Forward(x, x, /*causal=*/false);
  EXPECT_EQ(y.value().rows(), 5);
  EXPECT_EQ(y.value().cols(), 16);
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  // With a causal mask, changing a later input must not change earlier
  // outputs.
  Rng rng(3);
  MultiHeadAttention attn(8, 2, &rng);
  Tensor base({4, 8});
  Rng init(7);
  for (size_t i = 0; i < base.size(); ++i) {
    base.data()[i] = static_cast<float>(init.NextGaussian());
  }
  Tensor changed = base;
  changed.at(3, 0) += 5.0f;  // perturb the last position only

  Var y1 = attn.Forward(Var::Leaf(base, false), Var::Leaf(base, false), true);
  Var y2 =
      attn.Forward(Var::Leaf(changed, false), Var::Leaf(changed, false), true);
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1.value().at(t, j), y2.value().at(t, j), 1e-5f)
          << "leak at position " << t;
    }
  }
  // The perturbed position itself should change.
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) {
    diff += std::fabs(y1.value().at(3, j) - y2.value().at(3, j));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(TransformerTest, UnbalancedDepthConfig) {
  Rng rng(4);
  TransformerConfig cfg = TinyConfig();
  cfg.encoder_layers = 3;
  cfg.decoder_layers = 1;
  Transformer model(cfg, &rng);
  // ByT5-style 3:1 unbalanced architecture, §4.2.
  EXPECT_GT(model.NumParameters(), 0u);
}

TEST(TransformerTest, EncodeShape) {
  Rng rng(5);
  Transformer model(TinyConfig(), &rng);
  Var memory = model.Encode({1, 10, 20, 2});
  EXPECT_EQ(memory.value().rows(), 4);
  EXPECT_EQ(memory.value().cols(), 16);
}

TEST(TransformerTest, DecodeLogitsShape) {
  Rng rng(6);
  Transformer model(TinyConfig(), &rng);
  Var memory = model.Encode({1, 10, 2});
  Var logits = model.DecodeLogits(memory, {Vocab::kSos, 10, 11});
  EXPECT_EQ(logits.value().rows(), 3);
  EXPECT_EQ(logits.value().cols(), Vocab::kSize);
}

TEST(TransformerTest, GreedyDecodeTerminates) {
  Rng rng(7);
  Transformer model(TinyConfig(), &rng);
  auto out = testing::GreedyDecode(model, {1, 10, 2}, /*max_steps=*/8);
  EXPECT_LE(out.size(), 8u);
  for (int id : out) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, Vocab::kSize);
  }
}

TEST(TransformerTest, BeamDecodeDeterministicAndBounded) {
  Rng rng(8);
  Transformer model(TinyConfig(), &rng);
  auto a = testing::BeamDecode(model, {1, 10, 2}, 6, 3);
  auto b = testing::BeamDecode(model, {1, 10, 2}, 6, 3);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 6u);
}

TEST(TransformerTest, ParamsNamedAndStable) {
  Rng rng(9);
  Transformer model(TinyConfig(), &rng);
  auto p1 = model.Params();
  auto p2 = model.Params();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i].name, p2[i].name);
  EXPECT_GT(p1.size(), 10u);
}

TEST(OptimizerTest, AdamReducesQuadraticLoss) {
  // Minimize ||x - target||^2 with Adam; loss must fall monotonically-ish.
  Rng rng(10);
  Var x = Var::GaussianParam({4}, 1.0f, &rng);
  AdamOptions opts;
  opts.lr = 0.1f;
  Adam adam({{"x", x}}, opts);
  Tensor target = Tensor::Full({4}, 3.0f);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    Var diff = AddConst(x, [&] {
      Tensor t = target;
      for (size_t i = 0; i < t.size(); ++i) t.data()[i] = -t.data()[i];
      return t;
    }());
    Var loss = SumAll(Mul(diff, diff));
    if (step == 0) first_loss = loss.value().at(0);
    last_loss = loss.value().at(0);
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.05f);
}

TEST(OptimizerTest, WarmupScheduleRampsUp) {
  Rng rng(11);
  Var x = Var::GaussianParam({2}, 1.0f, &rng);
  AdamOptions opts;
  opts.lr = 1e-3f;
  opts.warmup_steps = 100;
  Adam adam({{"x", x}}, opts);
  // During warmup the LR grows with the step count.
  SumAll(Mul(x, x)).Backward();
  adam.Step();
  float lr1 = adam.CurrentLr();
  for (int i = 0; i < 20; ++i) {
    SumAll(Mul(x, x)).Backward();
    adam.Step();
  }
  EXPECT_GT(adam.CurrentLr(), lr1);
}

TEST(OptimizerTest, GradClippingBoundsNorm) {
  Rng rng(12);
  Var x = Var::GaussianParam({8}, 10.0f, &rng);
  AdamOptions opts;
  opts.clip_norm = 1.0f;
  Adam adam({{"x", x}}, opts);
  SumAll(Mul(x, Scale(x, 100.0f))).Backward();
  adam.Step();
  EXPECT_GT(adam.last_grad_norm(), 1.0f);  // raw norm was large
}

class ModelCheckpointTest : public ::dtt::testing::TempDirTest {};

TEST_F(ModelCheckpointTest, SaveLoadRoundTrip) {
  Rng rng(13);
  TransformerConfig cfg = TinyConfig();
  Transformer model(cfg, &rng);
  const std::string path = TempFile("dtt_ckpt_test.dttart");
  auto params = model.Params();
  ASSERT_TRUE(io::SaveArtifact(path, params).ok());

  Rng rng2(999);  // different init
  Transformer other(cfg, &rng2);
  auto other_params = other.Params();
  ASSERT_TRUE(io::LoadArtifactParams(path, &other_params).ok());
  auto expected = model.Params();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TENSOR_EQ(other_params[i].var.value(), expected[i].var.value());
  }
}

TEST_F(ModelCheckpointTest, LoadRejectsWrongShape) {
  Rng rng(14);
  TransformerConfig cfg = TinyConfig();
  Transformer model(cfg, &rng);
  const std::string path = TempFile("dtt_ckpt_bad.dttart");
  auto params = model.Params();
  ASSERT_TRUE(io::SaveArtifact(path, params).ok());

  cfg.dim = 32;  // incompatible width
  Rng rng2(15);
  Transformer other(cfg, &rng2);
  auto other_params = other.Params();
  EXPECT_FALSE(io::LoadArtifactParams(path, &other_params).ok());
}

TEST(TrainerTest, LossDecreasesOnCopyTask) {
  // Tiny task: target == source prefix; a couple hundred steps must cut the
  // loss substantially (sanity that backprop works end to end).
  Rng rng(16);
  TransformerConfig cfg = TinyConfig();
  auto model = std::make_shared<Transformer>(cfg, &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 64;
  TrainerOptions topts;
  topts.epochs = 1;
  topts.batch_size = 4;
  topts.adam.lr = 3e-3f;
  Seq2SeqTrainer trainer(model.get(), Serializer(sopts), topts);

  std::vector<TrainingInstance> instances;
  Rng data_rng(17);
  static constexpr char kChars[] = "abcd";
  for (int i = 0; i < 120; ++i) {
    std::string s;
    for (int j = 0; j < 4; ++j) {
      s += kChars[data_rng.NextBounded(4)];
    }
    TrainingInstance inst;
    inst.context = {{s, s.substr(0, 2)}, {s, s.substr(0, 2)}};
    inst.input_source = s;
    inst.label = s.substr(0, 2);
    instances.push_back(std::move(inst));
  }
  float loss0 = 0.0f;
  for (int i = 0; i < 10; ++i) {
    loss0 += trainer.InstanceLoss(instances[static_cast<size_t>(i)], false);
  }
  loss0 /= 10.0f;
  trainer.TrainEpoch(instances, &rng);
  trainer.TrainEpoch(instances, &rng);
  float loss1 = 0.0f;
  for (int i = 0; i < 10; ++i) {
    loss1 += trainer.InstanceLoss(instances[static_cast<size_t>(i)], false);
  }
  loss1 /= 10.0f;
  EXPECT_LT(loss1, loss0 * 0.8f);
}

TEST(TrainerTest, SkipsOverlongInstances) {
  Rng rng(18);
  TransformerConfig cfg = TinyConfig();
  Transformer model(cfg, &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 64;
  sopts.enforce_row_budget = false;
  TrainerOptions topts;
  topts.max_input_tokens = 16;
  Seq2SeqTrainer trainer(&model, Serializer(sopts), topts);
  TrainingInstance inst;
  inst.context = {{"aaaaaaaaaaaaaaaaaaaaaaaa", "b"}};
  inst.input_source = "cccccccccccccccccccc";
  inst.label = "d";
  EXPECT_LT(trainer.InstanceLoss(inst, false), 0.0f);  // -1 = skipped
}

}  // namespace
}  // namespace nn
}  // namespace dtt
