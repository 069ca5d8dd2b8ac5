#include "nn/tensor.h"

#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/ops.h"
#include "testing/matchers.h"

namespace dtt {
namespace nn {
namespace {

TEST(TensorTest, ZerosShapeAndSize) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(TensorTest, FromVectorAndMatrix) {
  Tensor v = Tensor::FromVector({1, 2, 3});
  EXPECT_EQ(v.rank(), 1);
  EXPECT_EQ(v.at(2), 3.0f);
  Tensor m = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.at(1, 0), 3.0f);
  EXPECT_EQ(m.at(0, 1), 2.0f);
}

TEST(TensorTest, AddInPlace) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({10, 20});
  a.AddInPlace(b);
  EXPECT_TENSOR_EQ(a, Tensor::FromVector({11, 22}));
}

TEST(TensorTest, AxpyInPlace) {
  Tensor a = Tensor::FromVector({1, 1});
  Tensor b = Tensor::FromVector({2, 4});
  a.AxpyInPlace(0.5f, b);
  EXPECT_TENSOR_NEAR(a, Tensor::FromVector({2, 3}), 1e-6f);
}

TEST(TensorTest, SumAndNorm) {
  Tensor t = Tensor::FromVector({3, 4});
  EXPECT_EQ(t.Sum(), 7.0f);
  EXPECT_FLOAT_EQ(t.L2Norm(), 5.0f);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
  EXPECT_FALSE(Tensor({6}).SameShape(Tensor({2, 3})));
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "[2,3]");
  EXPECT_EQ(Tensor().ShapeString(), "[]");
}

TEST(TensorBorrowedTest, ViewsWithoutCopying) {
  std::vector<float> store = {1, 2, 3, 4, 5, 6};
  const Tensor t = Tensor::Borrowed({2, 3}, store.data(), store.size());
  EXPECT_TRUE(t.borrowed());
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.data(), store.data());
  EXPECT_EQ(t.at(1, 2), 6.0f);
  store[0] = 42.0f;  // a view, not a snapshot
  EXPECT_EQ(t.at(0), 42.0f);
}

TEST(TensorBorrowedTest, CopiesStayBorrowedAndShareStorage) {
  std::vector<float> store = {1, 2, 3};
  const Tensor t = Tensor::Borrowed({3}, store.data(), store.size());
  const Tensor copy = t;        // NOLINT(performance-unnecessary-copy-...)
  Tensor assigned;
  assigned = t;
  const Tensor& assigned_view = assigned;
  EXPECT_TRUE(copy.borrowed());
  EXPECT_TRUE(assigned_view.borrowed());
  EXPECT_EQ(copy.data(), store.data());
  EXPECT_EQ(assigned_view.data(), store.data());
}

TEST(TensorBorrowedTest, ReadingOpsMatchOwned) {
  std::vector<float> store = {1, -2, 3, 4, -5, 6, 0.5f, 7, -8, 9, 10, -11};
  const Tensor borrowed = Tensor::Borrowed({4, 3}, store.data(), store.size());
  Tensor owned({4, 3});
  for (size_t i = 0; i < store.size(); ++i) {
    owned.at(static_cast<int>(i) / 3, static_cast<int>(i) % 3) = store[i];
  }
  EXPECT_FLOAT_EQ(borrowed.Sum(), owned.Sum());
  EXPECT_FLOAT_EQ(borrowed.L2Norm(), owned.L2Norm());
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(borrowed.at(r, c), owned.at(r, c));
  }
}

TEST(TensorBorrowedTest, OwnedCopyDetachesFromStorage) {
  std::vector<float> store = {1, 2, 3};
  const Tensor t = Tensor::Borrowed({3}, store.data(), store.size());
  Tensor copy = t.OwnedCopy();
  EXPECT_FALSE(copy.borrowed());
  copy.Fill(9.0f);  // mutating the copy is legal and leaves the store alone
  EXPECT_EQ(store[0], 1.0f);
  EXPECT_EQ(t.at(0), 1.0f);
}

TEST(TensorBorrowedDeathTest, MutatingOpsAbort) {
  std::vector<float> store = {1, 2, 3};
  Tensor t = Tensor::Borrowed({3}, store.data(), store.size());
  EXPECT_DEATH(t.Fill(0.0f), "borrowed");
  EXPECT_DEATH(t.AddInPlace(Tensor::FromVector({1, 1, 1})), "borrowed");
  EXPECT_DEATH(t.AxpyInPlace(2.0f, Tensor::FromVector({1, 1, 1})), "borrowed");
  EXPECT_DEATH(t.at(0) = 5.0f, "borrowed");
  EXPECT_DEATH(t.data()[0] = 5.0f, "borrowed");
}

TEST(TensorBorrowedTest, SliceColsMatchesOwnedBitForBit) {
  std::vector<float> store(4 * 3);
  for (size_t i = 0; i < store.size(); ++i) {
    store[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  Tensor owned({4, 3});
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) owned.at(r, c) = store[static_cast<size_t>(r) * 3 + c];
  }
  const Var from_owned =
      SliceCols(Var::Leaf(owned, /*requires_grad=*/false), 1, 2);
  const Var from_borrowed = SliceCols(
      Var::Leaf(Tensor::Borrowed({4, 3}, store.data(), store.size()),
                /*requires_grad=*/false),
      1, 2);
  EXPECT_FALSE(from_borrowed.value().borrowed());  // slices are owned copies
  EXPECT_TENSOR_EQ(from_borrowed.value(), from_owned.value());
}

}  // namespace
}  // namespace nn
}  // namespace dtt
