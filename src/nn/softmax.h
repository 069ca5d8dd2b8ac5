#ifndef DTT_NN_SOFTMAX_H_
#define DTT_NN_SOFTMAX_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/gemm.h"

namespace dtt {
namespace nn {
namespace internal {

// The only softmax and exp kernels in the system: the autograd Softmax and
// CrossEntropyLoss (nn/ops.cc) and the inference attention kernels
// (AttendRows and AttendSequences, nn/infer_internal.h) call SoftmaxRows, so
// every engine and its autograd oracle see the same probabilities bit for
// bit. Only beam search's log-sum-exp (nn/beam.cc) keeps libm's exp: it
// works in double precision, which this float kernel does not serve.
//
// ExpRow is glibc 2.36's generic `__expf` (the ARM optimized-routines
// algorithm: a 32-entry table of 2^(i/32) and a cubic in double precision)
// run in 4-lane vectors. Every lane and the scalar tail perform the same
// IEEE double operations in the same order, so:
//  - the result is bit-identical to that glibc body for every float input,
//    and within 1 ULP of round-to-float(double exp(x));
//  - no output bit depends on the row length, the start offset, or a row's
//    position in a packed batch;
//  - no output bit depends on the CPU: glibc's `expf` picks an FMA or a
//    non-FMA body at run time (they differ on two inputs), this kernel does
//    not, and -ffp-contract=off keeps the compiler from fusing `C0*r + C1`.
// Inputs below -0x1.9fe368p6 (about -103.97) return exactly +0, which the
// -1e9 additive causal mask of the autograd decoder relies on (see
// nn/ops.cc).
//
// SoftmaxRows keeps the scalar softmax's value order: the row max (exact in
// any order for non-NaN input, so it runs in lanes), x - max and exp per
// element, a sum over ascending j per row, and a multiply by 1/sum. Only the
// schedule changes: the four sums of a 4-row group run interleaved, one add
// chain per row, so no row's sum is split or reordered.

/// Lane types next to Lanes4: four doubles and their bit patterns, and the
/// bit patterns and compare masks of four floats.
typedef double Lanes4d __attribute__((vector_size(32)));
typedef uint64_t Lanes4u64 __attribute__((vector_size(32)));
typedef uint32_t Lanes4u32 __attribute__((vector_size(16)));
typedef int32_t Lanes4i32 __attribute__((vector_size(16)));

namespace exp_detail {

// glibc's __exp2f_data.tab: entry i holds asuint64(2^(i/32)) - (i << 47),
// so adding k << 47 for k = 32*e + i yields 2^(e + i/32). Copied from the
// bytes of glibc 2.36's libm, not recomputed; nn_softmax_test rederives it.
inline constexpr uint64_t kTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574,
    0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb,
    0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82,
    0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5,
    0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47,
    0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
// __exp2f_data.invln2_scaled, .shift and .poly_scaled: 32/ln2, the
// round-to-integer shift 1.5 * 2^52, and the cubic's coefficients of r^3,
// r^2 and r for 2^(r/32).
inline constexpr double kInvLn2N = 0x1.71547652b82fep0 * 32;
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
static_assert(std::bit_cast<uint64_t>(kInvLn2N) == 0x40471547652b82fe);
static_assert(std::bit_cast<uint64_t>(kShift) == 0x4338000000000000);
static_assert(std::bit_cast<uint64_t>(kC0) == 0x3ebc6af84b912394);
static_assert(std::bit_cast<uint64_t>(kC1) == 0x3f2ebfce50fac4f3);
static_assert(std::bit_cast<uint64_t>(kC2) == 0x3f962e42ff0c52d6);

// |x| >= 88, inf or NaN: the top 12 bits of |x| at or above those of 88.0f.
inline constexpr uint32_t kSpecialTop = 0x42b;

/// The ordinary path for one value: exp(x) = 2^(k/32) * 2^(r/32) with the
/// table giving 2^(k/32) and the cubic 2^(r/32).
inline float ExpCore(float x) {
  const double z = kInvLn2N * static_cast<double>(x);
  double kd = z + kShift;
  const uint64_t ki = std::bit_cast<uint64_t>(kd);
  kd -= kShift;
  const double r = z - kd;
  const double s = std::bit_cast<double>(kTable[ki % 32] + (ki << 47));
  const double p = kC0 * r + kC1;
  const double r2 = r * r;
  double y = kC2 * r + 1.0;
  y = p * r2 + y;
  return static_cast<float>(y * s);
}

/// ExpCore in four lanes, operation for operation.
inline Lanes4 ExpCore4(Lanes4 x) {
  const Lanes4d z = kInvLn2N * __builtin_convertvector(x, Lanes4d);
  Lanes4d kd = z + kShift;
  const Lanes4u64 ki = (Lanes4u64)kd;
  kd -= kShift;
  const Lanes4d r = z - kd;
  Lanes4u64 t = {kTable[ki[0] % 32], kTable[ki[1] % 32], kTable[ki[2] % 32],
                 kTable[ki[3] % 32]};
  t += ki << 47;
  const Lanes4d s = (Lanes4d)t;
  const Lanes4d p = kC0 * r + kC1;
  const Lanes4d r2 = r * r;
  Lanes4d y = kC2 * r + 1.0;
  y = p * r2 + y;
  return __builtin_convertvector(y * s, Lanes4);
}

}  // namespace exp_detail

/// exp(x) for one value, the scalar form of ExpRow: glibc's special cases,
/// then the ordinary path.
inline float ExpScalar(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const uint32_t top = (bits >> 20) & 0x7ff;
  if (top >= exp_detail::kSpecialTop) {
    if (bits == 0xff800000u) return 0.0f;  // -inf
    if (top >= 0x7f8) return x + x;        // NaN or +inf
    if (x > 0x1.62e42ep6f) {               // above log(2^128): overflow
      return std::numeric_limits<float>::infinity();
    }
    if (x < -0x1.9fe368p6f) return 0.0f;  // below log(2^-150): underflow
  }
  return exp_detail::ExpCore(x);
}

/// x[i] = exp(x[i]) for i in [0, n), four lanes at a time. A group of four
/// with any lane at |x| >= 88, inf or NaN goes through ExpScalar lane by
/// lane; the tail does too, so every element gets the same bits.
inline void ExpRow(float* x, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    Lanes4 v;
    std::memcpy(&v, x + i, sizeof(v));
    const Lanes4u32 top = ((Lanes4u32)v >> 20) & 0x7ff;
    const Lanes4i32 special = top >= exp_detail::kSpecialTop;
    uint64_t halves[2];
    std::memcpy(halves, &special, sizeof(halves));
    if (halves[0] | halves[1]) {
      for (int l = 0; l < 4; ++l) x[i + l] = ExpScalar(x[i + l]);
      continue;
    }
    v = exp_detail::ExpCore4(v);
    std::memcpy(x + i, &v, sizeof(v));
  }
  for (; i < n; ++i) x[i] = ExpScalar(x[i]);
}

/// The largest value of row[0, n), n >= 1. Exact in any order for non-NaN
/// input; a tie of +0 and -0 may return either, which exp maps to 1 alike.
inline float RowMax(const float* row, int n) {
  assert(n >= 1);
  float mx = row[0];
  int j = 0;
  if (n >= 4) {
    Lanes4 m;
    std::memcpy(&m, row, sizeof(m));
    for (j = 4; j + 4 <= n; j += 4) {
      Lanes4 v;
      std::memcpy(&v, row + j, sizeof(v));
      m = m < v ? v : m;
    }
    mx = m[0];
    for (int l = 1; l < 4; ++l) mx = mx < m[l] ? m[l] : mx;
  }
  for (; j < n; ++j) mx = mx < row[j] ? row[j] : mx;
  return mx;
}

/// row[j] *= s, four lanes at a time.
inline void MulRow(float* row, int n, float s) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    Lanes4 v;
    std::memcpy(&v, row + j, sizeof(v));
    v *= s;
    std::memcpy(row + j, &v, sizeof(v));
  }
  for (; j < n; ++j) row[j] *= s;
}

/// row[j] -= s, four lanes at a time.
inline void SubRow(float* row, int n, float s) {
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    Lanes4 v;
    std::memcpy(&v, row + j, sizeof(v));
    v -= s;
    std::memcpy(row + j, &v, sizeof(v));
  }
  for (; j < n; ++j) row[j] -= s;
}

/// In-place row softmax of x [rows, cols], cols >= 1: per row, max, then
/// exp(x - max), then a multiply by 1 / (sum in ascending j).
inline void SoftmaxRows(float* x, int rows, int cols) {
  constexpr int kGroup = 4;
  for (int r0 = 0; r0 < rows; r0 += kGroup) {
    const int g = rows - r0 < kGroup ? rows - r0 : kGroup;
    float* base = x + static_cast<size_t>(r0) * cols;
    for (int r = 0; r < g; ++r) {
      float* row = base + static_cast<size_t>(r) * cols;
      SubRow(row, cols, RowMax(row, cols));
      ExpRow(row, cols);
    }
    // One add chain per row, ascending j; a full group runs its four
    // chains interleaved so their adds overlap.
    float sum[kGroup] = {0.0f, 0.0f, 0.0f, 0.0f};
    if (g == kGroup) {
      for (int j = 0; j < cols; ++j) {
        for (int r = 0; r < kGroup; ++r) {
          sum[r] += base[static_cast<size_t>(r) * cols + j];
        }
      }
    } else {
      for (int r = 0; r < g; ++r) {
        const float* row = base + static_cast<size_t>(r) * cols;
        for (int j = 0; j < cols; ++j) sum[r] += row[j];
      }
    }
    for (int r = 0; r < g; ++r) {
      MulRow(base + static_cast<size_t>(r) * cols, cols, 1.0f / sum[r]);
    }
  }
}

/// x[i] = max(x[i], 0) in the select form `x < 0 ? 0 : x`, four lanes at a
/// time: -0 and NaN pass through unchanged, as with a branch.
inline void ReluRow(float* x, size_t n) {
  size_t i = 0;
  const Lanes4 zero = {0.0f, 0.0f, 0.0f, 0.0f};
  for (; i + 4 <= n; i += 4) {
    Lanes4 v;
    std::memcpy(&v, x + i, sizeof(v));
    v = v < zero ? zero : v;
    std::memcpy(x + i, &v, sizeof(v));
  }
  for (; i < n; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_SOFTMAX_H_
