#include "nn/tensor.h"

#include <cassert>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace dtt {
namespace nn {

namespace {
size_t NumElements(const std::vector<int>& shape) {
  size_t n = 1;
  for (int d : shape) {
    assert(d >= 0);
    n *= static_cast<size_t>(d);
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(NumElements(shape_), 0.0f) {}

Tensor Tensor::Full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  Tensor t({static_cast<int>(values.size())});
  for (size_t i = 0; i < values.size(); ++i) t.data_[i] = values[i];
  return t;
}

Tensor Tensor::FromMatrix(int rows, int cols,
                          const std::vector<float>& values) {
  assert(values.size() == static_cast<size_t>(rows) * static_cast<size_t>(cols));
  Tensor t({rows, cols});
  for (size_t i = 0; i < values.size(); ++i) t.data_[i] = values[i];
  return t;
}

Tensor Tensor::Borrowed(std::vector<int> shape, const float* data,
                        size_t size) {
  DTT_CHECK(size == NumElements(shape));
  DTT_CHECK(data != nullptr || size == 0);
  Tensor t;
  t.shape_ = std::move(shape);
  t.span_ = data;
  t.span_size_ = size;
  return t;
}

Tensor Tensor::OwnedCopy() const {
  Tensor t;
  t.shape_ = shape_;
  t.data_.assign(data(), data() + size());
  return t;
}

void Tensor::DieBorrowedMutation() const {
  DTT_LOGS(Error) << "attempted in-place mutation of a borrowed (read-only "
                     "view) tensor "
                  << ShapeString() << "; use OwnedCopy() to materialize";
  std::abort();
}

void Tensor::Fill(float value) {
  float* d = mutable_data();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) d[i] = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  assert(SameShape(other));
  float* d = mutable_data();
  const float* o = other.data();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) d[i] += o[i];
}

void Tensor::AxpyInPlace(float alpha, const Tensor& b) {
  assert(SameShape(b));
  float* d = mutable_data();
  const float* o = b.data();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) d[i] += alpha * o[i];
}

float Tensor::Sum() const {
  const float* d = data();
  const size_t n = size();
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += d[i];
  return s;
}

float Tensor::L2Norm() const {
  const float* d = data();
  const size_t n = size();
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<double>(d[i]) * d[i];
  }
  return static_cast<float>(std::sqrt(s));
}

std::string Tensor::ShapeString() const {
  std::string out = "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(shape_[i]);
  }
  out += "]";
  return out;
}

}  // namespace nn
}  // namespace dtt
