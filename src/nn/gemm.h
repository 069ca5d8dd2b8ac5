#ifndef DTT_NN_GEMM_H_
#define DTT_NN_GEMM_H_

#include <cstddef>

namespace dtt {
namespace nn {
namespace internal {

// The only GEMM kernels in the system: autograd MatMul (nn/ops.cc) and the
// graph-free decode engines (AffineRows, nn/infer_internal.h) call them
// directly. Their accumulation order is the bit-exactness contract every
// engine parity test and pinned decode golden relies on:
//
//  1. Per output element, partial products are added in ascending-p order.
//     GemmAcc and GemmAtAcc resume from the element's existing value;
//     GemmBtAcc sums a fresh dot product and adds it to the element once.
//  2. Terms whose A operand is an exact fp32 zero are skipped. The skip is
//     load-bearing for speed (padded batch rows and masked-out softmax
//     scores are exact zeros by construction — see the Softmax/PaddedBatch
//     notes in nn/ops.cc), but never for values: for finite inputs and
//     accumulators that are not -0.0, skipping `c += 0.0f * b` is bitwise
//     neutral. nn_gemm_test pins both parts against naive loops with no
//     skip. A faster kernel must keep this order; reassociating one
//     element's sum changes output bits.

/// C += A * B for row-major [m,k] x [k,n]; ikj ordering for locality.
/// Shared by the autograd MatMul op and the raw inference engine so both
/// paths accumulate in the same order (bit-exact results).
inline void GemmAcc(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += A^T * B for A [k,m], B [k,n] -> C [m,n].
inline void GemmAtAcc(const float* a, const float* b, float* c, int k, int m,
                      int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += A * B^T for A [m,k], B [n,k] -> C [m,n]. Carries the same
/// `av == 0.0f` skip as GemmAcc/GemmAtAcc (the asymmetry was an oversight):
/// rows of A that are exact zeros — padded batch rows backpropagating zero
/// grad through MatMul — skip their multiply-adds entirely. Skipping a zero
/// term is bitwise-neutral for the fresh `dot` accumulator, so this changed
/// no output bit (nn_gemm_test pins the pre-change goldens).
inline void GemmBtAcc(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float dot = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        dot += av * brow[p];
      }
      crow[j] += dot;
    }
  }
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_GEMM_H_
