#ifndef DTT_NN_TENSOR_H_
#define DTT_NN_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dtt {
namespace nn {

/// Dense row-major float tensor of rank 1 or 2: the autograd model runs one
/// unpadded sequence at a time, and the batched inference engines pack
/// sequences row-wise. Kept dumb on purpose — all smart behaviour lives in
/// the autograd ops.
///
/// Storage comes in two modes:
///   * owned    — the default: elements live in a heap std::vector<float>.
///   * borrowed — a read-only view over memory the tensor does not own
///     (Borrowed()). Used by the artifact loader (io/model_artifact.h) to
///     bind model weights directly onto an mmap'd DTTART1 payload: load is
///     near-instant and the page cache shares weights across processes.
///     The caller guarantees the pointed-to memory outlives every tensor
///     (and copy) viewing it. All reading APIs behave identically in both
///     modes; every mutating API aborts on a borrowed tensor (weights served
///     off a read-only map must never be written — train on OwnedCopy()).
class Tensor {
 public:
  Tensor() = default;

  /// Uninitialized (zero-filled) tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  static Tensor Full(std::vector<int> shape, float value);

  /// 1-D from values.
  static Tensor FromVector(const std::vector<float>& values);

  /// 2-D from row-major values; values.size() must equal rows*cols.
  static Tensor FromMatrix(int rows, int cols, const std::vector<float>& values);

  /// Non-owning read-only view of `size` floats at `data` (row-major,
  /// matching `shape`'s element count). Copies of the result stay borrowed
  /// and share the pointer; the memory must outlive all of them.
  static Tensor Borrowed(std::vector<int> shape, const float* data,
                         size_t size);

  /// True when this tensor views memory it does not own (see Borrowed()).
  bool borrowed() const { return span_ != nullptr; }

  /// A deep owned copy (identical shape and values). The escape hatch for
  /// code that must mutate values originating from a borrowed view.
  Tensor OwnedCopy() const;

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const { return shape_[static_cast<size_t>(i)]; }
  size_t size() const { return span_ ? span_size_ : data_.size(); }
  bool empty() const { return size() == 0; }

  float* data() { return mutable_data(); }
  const float* data() const { return span_ ? span_ : data_.data(); }

  float& at(int i) { return mutable_data()[static_cast<size_t>(i)]; }
  float at(int i) const { return data()[static_cast<size_t>(i)]; }
  /// 2-D accessors (rank must be 2).
  float& at(int r, int c) {
    return mutable_data()[static_cast<size_t>(r) * cols() + c];
  }
  float at(int r, int c) const {
    return data()[static_cast<size_t>(r) * cols() + c];
  }

  int rows() const { return shape_.empty() ? 0 : shape_[0]; }
  int cols() const { return rank() < 2 ? 1 : shape_[1]; }

  void Fill(float value);
  void AddInPlace(const Tensor& other);           // this += other
  void AxpyInPlace(float alpha, const Tensor& b); // this += alpha * b

  /// Sum of all elements / L2 norm (used by grad clipping and tests).
  float Sum() const;
  float L2Norm() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string ShapeString() const;

 private:
  /// Mutable element access; aborts on a borrowed tensor (the single gate
  /// every mutating API funnels through).
  float* mutable_data() {
    if (span_ != nullptr) DieBorrowedMutation();
    return data_.data();
  }
  [[noreturn]] void DieBorrowedMutation() const;

  std::vector<int> shape_;
  std::vector<float> data_;
  // Borrowed mode: non-null span_ shadows data_ (which stays empty).
  const float* span_ = nullptr;
  size_t span_size_ = 0;
};

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_TENSOR_H_
