#ifndef DTT_TESTS_TESTING_REFERENCE_EXP_H_
#define DTT_TESTS_TESTING_REFERENCE_EXP_H_

namespace dtt {
namespace testing {

/// Scalar oracle for nn::internal::ExpRow: a line-by-line port of glibc
/// 2.36's generic `__expf` (sysdeps/ieee754/flt-32/e_expf.c, from ARM's
/// optimized-routines), with the errno and rounding-mode side effects left
/// out. Its 2^(i/32) table is derived at first use from `exp2l` rather than
/// copied, so comparing the kernel against it also checks the kernel's
/// copied table. Needs no gtest, so tools can link it too.
float ReferenceExpf(float x);

}  // namespace testing
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_EXP_H_
