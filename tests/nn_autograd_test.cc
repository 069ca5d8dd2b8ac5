#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/ops.h"

namespace dtt {
namespace nn {
namespace {

// Finite-difference gradient check: builds a scalar loss from leaf `x` via
// `fn`, and compares autograd dL/dx with central differences.
void CheckGradient(Tensor x_init,
                   const std::function<Var(const Var&)>& fn,
                   float tol = 2e-2f, float eps = 1e-3f) {
  Var x = Var::Leaf(x_init, /*requires_grad=*/true);
  Var loss = fn(x);
  ASSERT_EQ(loss.value().size(), 1u) << "loss must be scalar";
  loss.Backward();
  ASSERT_TRUE(x.node()->HasGrad());
  Tensor analytic = x.grad();

  for (size_t i = 0; i < x_init.size(); ++i) {
    Tensor plus = x_init;
    plus.data()[i] += eps;
    Tensor minus = x_init;
    minus.data()[i] -= eps;
    Var xp = Var::Leaf(plus, false);
    Var xm = Var::Leaf(minus, false);
    float lp = fn(xp).value().at(0);
    float lm = fn(xm).value().at(0);
    float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(1.0f, std::fabs(numeric)))
        << "at element " << i;
  }
}

Tensor RandomTensor(std::vector<int> shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return t;
}

TEST(AutogradTest, BackwardThroughAdd) {
  CheckGradient(RandomTensor({3, 2}, 1), [](const Var& x) {
    Var y = Var::Leaf(Tensor::Full({3, 2}, 0.5f), false);
    return SumAll(Add(x, y));
  });
}

TEST(AutogradTest, BackwardThroughScale) {
  CheckGradient(RandomTensor({4}, 2), [](const Var& x) {
    return SumAll(Scale(x, -2.5f));
  });
}

TEST(AutogradTest, BackwardThroughMul) {
  Tensor other = RandomTensor({2, 3}, 33);
  CheckGradient(RandomTensor({2, 3}, 3), [other](const Var& x) {
    return SumAll(Mul(x, Var::Leaf(other, false)));
  });
}

TEST(AutogradTest, BackwardThroughMatMulLhs) {
  Tensor b = RandomTensor({3, 2}, 4);
  CheckGradient(RandomTensor({2, 3}, 5), [b](const Var& x) {
    return SumAll(MatMul(x, Var::Leaf(b, false)));
  });
}

TEST(AutogradTest, BackwardThroughMatMulRhs) {
  Tensor a = RandomTensor({2, 3}, 6);
  CheckGradient(RandomTensor({3, 2}, 7), [a](const Var& x) {
    return SumAll(MatMul(Var::Leaf(a, false), x));
  });
}

TEST(AutogradTest, BackwardThroughTranspose) {
  Tensor w = RandomTensor({2, 3}, 8);
  CheckGradient(RandomTensor({3, 2}, 9), [w](const Var& x) {
    return SumAll(Mul(Transpose(x), Var::Leaf(w, false)));
  });
}

TEST(AutogradTest, BackwardThroughRowBroadcastBias) {
  Tensor xs = RandomTensor({3, 4}, 10);
  CheckGradient(RandomTensor({4}, 11), [xs](const Var& bias) {
    return SumAll(AddRowBroadcast(Var::Leaf(xs, false), bias));
  });
}

TEST(AutogradTest, BackwardThroughRelu) {
  CheckGradient(RandomTensor({3, 3}, 12), [](const Var& x) {
    return SumAll(Relu(x));
  });
}

TEST(AutogradTest, BackwardThroughSoftmax) {
  Tensor w = RandomTensor({2, 5}, 14);
  CheckGradient(RandomTensor({2, 5}, 15, 0.5f), [w](const Var& x) {
    return SumAll(Mul(Softmax(x), Var::Leaf(w, false)));
  });
}

TEST(AutogradTest, SoftmaxRowsSumToOne) {
  Var x = Var::Leaf(RandomTensor({3, 7}, 16), false);
  Var y = Softmax(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 7; ++c) sum += y.value().at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AutogradTest, BackwardThroughLayerNormInput) {
  Tensor gamma = Tensor::Full({4}, 1.3f);
  Tensor beta = Tensor::Full({4}, -0.2f);
  Tensor w = RandomTensor({3, 4}, 17);
  CheckGradient(
      RandomTensor({3, 4}, 18),
      [gamma, beta, w](const Var& x) {
        Var ln = LayerNormOp(x, Var::Leaf(gamma, false),
                             Var::Leaf(beta, false));
        return SumAll(Mul(ln, Var::Leaf(w, false)));
      },
      /*tol=*/5e-2f);
}

TEST(AutogradTest, BackwardThroughLayerNormParams) {
  Tensor xs = RandomTensor({3, 4}, 19);
  Tensor beta = Tensor({4});
  Tensor w = RandomTensor({3, 4}, 20);
  CheckGradient(Tensor::Full({4}, 1.0f), [xs, beta, w](const Var& gamma) {
    Var ln = LayerNormOp(Var::Leaf(xs, false), gamma, Var::Leaf(beta, false));
    return SumAll(Mul(ln, Var::Leaf(w, false)));
  });
}

TEST(AutogradTest, BackwardThroughEmbedding) {
  std::vector<int> ids = {0, 2, 1, 2};
  Tensor w = RandomTensor({4, 3}, 21);
  CheckGradient(w, [ids](const Var& weight) {
    return SumAll(EmbeddingGather(weight, ids));
  });
}

TEST(AutogradTest, EmbeddingGradAccumulatesRepeatedIds) {
  Var w = Var::Leaf(RandomTensor({3, 2}, 22), true);
  Var g = EmbeddingGather(w, {1, 1, 1});
  SumAll(g).Backward();
  // Row 1 used three times -> grad 3, rows 0/2 unused -> 0.
  EXPECT_FLOAT_EQ(w.grad().at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(w.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(w.grad().at(2, 1), 0.0f);
}

TEST(AutogradTest, BackwardThroughSliceAndConcat) {
  Tensor w = RandomTensor({2, 6}, 23);
  CheckGradient(RandomTensor({2, 6}, 24), [w](const Var& x) {
    Var a = SliceCols(x, 0, 3);
    Var b = SliceCols(x, 3, 3);
    Var merged = ConcatCols({b, a});  // swapped halves
    return SumAll(Mul(merged, Var::Leaf(w, false)));
  });
}

TEST(AutogradTest, BackwardThroughCrossEntropy) {
  std::vector<int> targets = {1, 0, 2};
  CheckGradient(RandomTensor({3, 4}, 25), [targets](const Var& logits) {
    return CrossEntropyLoss(logits, targets);
  });
}

TEST(AutogradTest, CrossEntropyIgnoreIndex) {
  std::vector<int> targets = {1, -1, 2};
  Var logits = Var::Leaf(RandomTensor({3, 4}, 26), true);
  Var loss = CrossEntropyLoss(logits, targets, /*ignore_index=*/-1);
  loss.Backward();
  // Ignored row contributes zero gradient.
  for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(logits.grad().at(1, c), 0.0f);
  // Non-ignored rows do contribute.
  float row0 = 0.0f;
  for (int c = 0; c < 4; ++c) row0 += std::fabs(logits.grad().at(0, c));
  EXPECT_GT(row0, 0.0f);
}

TEST(AutogradTest, CrossEntropyMatchesManualValue) {
  // Uniform logits -> loss = log(V).
  Var logits = Var::Leaf(Tensor({2, 4}), false);
  Var loss = CrossEntropyLoss(logits, {0, 3});
  EXPECT_NEAR(loss.value().at(0), std::log(4.0f), 1e-5f);
}

TEST(AutogradTest, GradAccumulatesAcrossMultipleUses) {
  Var x = Var::Leaf(Tensor::Full({2}, 1.0f), true);
  Var y = Add(x, x);  // dy/dx = 2
  SumAll(y).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 2.0f);
}

TEST(AutogradTest, BackwardTwiceAccumulates) {
  Var x = Var::Leaf(Tensor::Full({2}, 1.0f), true);
  SumAll(Scale(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
  SumAll(Scale(x, 3.0f)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 6.0f);  // accumulated, not overwritten
  x.node()->ZeroGrad();
  EXPECT_FALSE(x.node()->HasGrad());
}

TEST(AutogradTest, NoGradLeavesStayClean) {
  Var x = Var::Leaf(Tensor::Full({2}, 1.0f), false);
  Var y = Var::Leaf(Tensor::Full({2}, 2.0f), true);
  SumAll(Mul(x, y)).Backward();
  EXPECT_FALSE(x.node()->HasGrad());
  EXPECT_TRUE(y.node()->HasGrad());
}

TEST(AutogradTest, AddConstNoGradientExplosion) {
  Tensor mask({2, 2});
  mask.at(0, 1) = -1e9f;
  CheckGradient(RandomTensor({2, 2}, 27), [mask](const Var& x) {
    Var w = Var::Leaf(Tensor::Full({2, 2}, 0.3f), false);
    return SumAll(Mul(Softmax(AddConst(x, mask)), w));
  });
}

}  // namespace
}  // namespace nn
}  // namespace dtt
