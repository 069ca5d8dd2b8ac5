#include "testing/matchers.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace dtt {
namespace testing {

namespace {

::testing::AssertionResult ShapeMismatch(const nn::Tensor& actual,
                                         const nn::Tensor& expected) {
  return ::testing::AssertionFailure()
         << "tensor shape mismatch: actual " << actual.ShapeString()
         << " vs expected " << expected.ShapeString();
}

}  // namespace

::testing::AssertionResult TensorNear(const nn::Tensor& actual,
                                      const nn::Tensor& expected,
                                      float abs_tol) {
  if (!actual.SameShape(expected)) return ShapeMismatch(actual, expected);
  for (size_t i = 0; i < actual.size(); ++i) {
    const float a = actual.data()[i];
    const float b = expected.data()[i];
    const float diff = std::fabs(a - b);
    if (!(diff <= abs_tol)) {  // catches NaN too
      return ::testing::AssertionFailure()
             << "tensors differ at flat index " << i << ": actual " << a
             << " vs expected " << b << " (|diff| = " << diff << " > "
             << abs_tol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TensorEq(const nn::Tensor& actual,
                                    const nn::Tensor& expected) {
  if (!actual.SameShape(expected)) return ShapeMismatch(actual, expected);
  for (size_t i = 0; i < actual.size(); ++i) {
    // Bit-level comparison: distinguishes -0.0f from 0.0f and treats a NaN
    // as equal to the identical NaN, which is what "restores exact bytes"
    // round-trip tests need.
    if (std::bit_cast<uint32_t>(actual.data()[i]) !=
        std::bit_cast<uint32_t>(expected.data()[i])) {
      return ::testing::AssertionFailure()
             << "tensors differ at flat index " << i << ": actual "
             << actual.data()[i] << " vs expected " << expected.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace dtt
