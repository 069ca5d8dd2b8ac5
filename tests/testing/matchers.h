#ifndef DTT_TESTS_TESTING_MATCHERS_H_
#define DTT_TESTS_TESTING_MATCHERS_H_

#include <gtest/gtest.h>

#include "nn/tensor.h"

namespace dtt {
namespace testing {

/// Elementwise |a-b| <= abs_tol with shape checking; on failure the message
/// names the first offending index and both values.
::testing::AssertionResult TensorNear(const nn::Tensor& actual,
                                      const nn::Tensor& expected,
                                      float abs_tol);

/// Exact bit-level elementwise equality with shape checking; distinguishes
/// -0.0f from 0.0f and treats identical NaNs as equal.
::testing::AssertionResult TensorEq(const nn::Tensor& actual,
                                    const nn::Tensor& expected);

}  // namespace testing
}  // namespace dtt

#define EXPECT_TENSOR_NEAR(actual, expected, abs_tol) \
  EXPECT_TRUE(::dtt::testing::TensorNear((actual), (expected), (abs_tol)))
#define ASSERT_TENSOR_NEAR(actual, expected, abs_tol) \
  ASSERT_TRUE(::dtt::testing::TensorNear((actual), (expected), (abs_tol)))
#define EXPECT_TENSOR_EQ(actual, expected) \
  EXPECT_TRUE(::dtt::testing::TensorEq((actual), (expected)))
#define ASSERT_TENSOR_EQ(actual, expected) \
  ASSERT_TRUE(::dtt::testing::TensorEq((actual), (expected)))

#endif  // DTT_TESTS_TESTING_MATCHERS_H_
