#ifndef DTT_NN_GEMM_H_
#define DTT_NN_GEMM_H_

#include <cstddef>
#include <cstring>
#include <vector>

namespace dtt {
namespace nn {
namespace internal {

// The only GEMM kernels in the system: autograd MatMul (nn/ops.cc) and the
// graph-free inference kernels (AffineRows and AttendSequences,
// nn/infer_internal.h) call them directly. Their accumulation order is the
// bit-exactness contract every engine parity test and pinned decode golden
// relies on, together with the one softmax and exp kernel in nn/softmax.h
// (ExpRow, glibc's generic expf in lanes; SoftmaxRows, ascending-j sums):
// per output element, partial products are added in ascending-p order, one
// rounded multiply and one rounded add each, with no term skipped. GemmAcc
// and GemmAtAcc resume from the element's existing value; GemmBtAcc sums a
// fresh dot product from +0.0f and adds it to the element once. So each
// kernel equals the naive triple loop for every input, -0.0f, inf and NaN
// included, and nn_gemm_test pins that on the bits. A faster kernel must
// keep this order; reassociating one element's sum changes output bits.
//
// GemmAcc keeps a tile of C in registers across the whole p loop, up to 4
// rows by two vectors per row. When the build targets AVX2 (the root
// CMakeLists.txt adds -march=x86-64-v3 on hosts that have it) the vectors
// are 8 lanes wide, so tiles are 16 columns, followed by one 8-lane tile;
// otherwise they are 4 lanes wide, so tiles are 8 columns. A 4-lane and a
// scalar tile take the rest of the columns. Vector lanes run over j (a
// score row's keys or an output row's head lanes, when AttendSequences
// calls it), and the rows of a tile (its queries) are separate
// accumulators. No lane or row adds into another's sum and no sum is split
// over p, so each element still starts from its own C value and adds its
// own terms in ascending p, one rounded multiply and one rounded add each,
// as the scalar loop did, whatever the tile width. That holds only while
// the compiler does not contract `acc += a * b` into an FMA, which is why
// the build pins -ffp-contract=off.

/// Four fp32 lanes in GCC/Clang vector-extension form; the compiler lowers
/// them to whatever the target has, so no ISA-specific code is needed.
typedef float Lanes4 __attribute__((vector_size(16)));
#ifdef __AVX2__
/// Eight fp32 lanes: one AVX register.
typedef float Lanes8 __attribute__((vector_size(32)));
#endif

/// One tile: rows [0, R) of A/C by V values of type T (Lanes8, Lanes4, or
/// float for the column tail) starting at column j. Loads and stores go
/// through memcpy because rows carry only float alignment.
template <int R, int V, typename T>
inline void GemmTile(const float* a, const float* b, float* c, int k, int n,
                     int j) {
  constexpr int kWidth = sizeof(T) / sizeof(float);
  T acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      std::memcpy(&acc[r][v], c + static_cast<size_t>(r) * n + j + v * kWidth,
                  sizeof(T));
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n + j;
    T bv[V];
    for (int v = 0; v < V; ++v) {
      std::memcpy(&bv[v], brow + v * kWidth, sizeof(T));
    }
    for (int r = 0; r < R; ++r) {
      const float av = a[static_cast<size_t>(r) * k + p];
      for (int v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      std::memcpy(c + static_cast<size_t>(r) * n + j + v * kWidth, &acc[r][v],
                  sizeof(T));
    }
  }
}

/// Rows [0, R) of C += A * B, tile by tile across the columns.
template <int R>
inline void GemmRows(const float* a, const float* b, float* c, int k, int n) {
  int j = 0;
#ifdef __AVX2__
  for (; j + 16 <= n; j += 16) GemmTile<R, 2, Lanes8>(a, b, c, k, n, j);
  if (j + 8 <= n) {
    GemmTile<R, 1, Lanes8>(a, b, c, k, n, j);
    j += 8;
  }
#else
  for (; j + 8 <= n; j += 8) GemmTile<R, 2, Lanes4>(a, b, c, k, n, j);
#endif
  if (j + 4 <= n) {
    GemmTile<R, 1, Lanes4>(a, b, c, k, n, j);
    j += 4;
  }
  for (; j < n; ++j) GemmTile<R, 1, float>(a, b, c, k, n, j);
}

/// C += A * B for row-major [m,k] x [k,n], in register tiles of 4 rows.
/// Shared by the autograd MatMul op and the raw inference engine so both
/// paths accumulate in the same order (bit-exact results).
inline void GemmAcc(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmRows<4>(a + static_cast<size_t>(i) * k, b,
                c + static_cast<size_t>(i) * n, k, n);
  }
  a += static_cast<size_t>(i) * k;
  c += static_cast<size_t>(i) * n;
  switch (m - i) {
    case 3: GemmRows<3>(a, b, c, k, n); break;
    case 2: GemmRows<2>(a, b, c, k, n); break;
    case 1: GemmRows<1>(a, b, c, k, n); break;
    default: break;
  }
}

/// C += A^T * B for A [k,m], B [k,n] -> C [m,n].
inline void GemmAtAcc(const float* a, const float* b, float* c, int k, int m,
                      int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += A * B^T for A [m,k], B [n,k] -> C [m,n]: B is transposed once to
/// [k,n] and GemmAcc runs into a zeroed [m,n] tile, so each dot product
/// starts from +0.0f and adds its terms in ascending p; the tile is then
/// added to C.
inline void GemmBtAcc(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  std::vector<float> bt(static_cast<size_t>(k) * n);
  for (int j = 0; j < n; ++j) {
    const float* brow = b + static_cast<size_t>(j) * k;
    for (int p = 0; p < k; ++p) bt[static_cast<size_t>(p) * n + j] = brow[p];
  }
  std::vector<float> tile(static_cast<size_t>(m) * n, 0.0f);
  GemmAcc(a, bt.data(), tile.data(), m, k, n);
  for (size_t i = 0; i < tile.size(); ++i) c[i] += tile[i];
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_GEMM_H_
