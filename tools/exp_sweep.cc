// Exhaustive check of the softmax exp kernel (nn/softmax.h):
//
//   exp_sweep
//       runs nn::internal::ExpRow over all 2^32 float bit patterns and
//       checks each result:
//        - bit-identical to testing::ReferenceExpf, the scalar port of
//          glibc 2.36's generic __expf;
//        - within 1 ULP of round-to-float(double exp(x)) for non-NaN x;
//        - exactly +0 below -0x1.9fe368p6 and exactly 1 at +-0.
//       nn_softmax_test runs the same checks on every 64th float of
//       [-104, 88.72]. The full sweep costs about 110 CPU-seconds on a
//       shared x86-64 host (Release), split over 4 threads.
//
// Exit code 0 when every input passes, 1 on any mismatch (the first few
// are printed).
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "nn/softmax.h"
#include "testing/reference_exp.h"

namespace {

struct Counts {
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> failed{0};
};

void Report(const char* what, float x, float got, float want,
            Counts* counts) {
  if (counts->failed.fetch_add(1) < 10) {
    std::fprintf(stderr, "%s: x = %a (0x%08x): got %a, want %a\n", what, x,
                 std::bit_cast<uint32_t>(x), got, want);
  }
}

/// Checks the bit patterns [first, end).
void Sweep(uint64_t first, uint64_t end, Counts* counts) {
  constexpr size_t kBatch = 1 << 14;
  std::vector<float> in, out;
  in.reserve(kBatch);
  for (uint64_t b = first; b < end;) {
    in.clear();
    for (; b < end && in.size() < kBatch; ++b) {
      in.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));
    }
    out = in;
    dtt::nn::internal::ExpRow(out.data(), static_cast<int>(out.size()));
    for (size_t i = 0; i < in.size(); ++i) {
      const float x = in[i];
      const float y = out[i];
      const float ref = dtt::testing::ReferenceExpf(x);
      if (std::bit_cast<uint32_t>(y) != std::bit_cast<uint32_t>(ref)) {
        Report("differs from the glibc oracle", x, y, ref, counts);
      }
      if (std::isnan(x)) continue;
      const float rounded =
          static_cast<float>(std::exp(static_cast<double>(x)));
      const int64_t ulps =
          static_cast<int64_t>(std::bit_cast<uint32_t>(y)) -
          static_cast<int64_t>(std::bit_cast<uint32_t>(rounded));
      if (ulps > 1 || ulps < -1) {
        Report("more than 1 ULP from double exp", x, y, rounded, counts);
      }
      if (x < -0x1.9fe368p6f && std::bit_cast<uint32_t>(y) != 0) {
        Report("not exactly +0 below the underflow threshold", x, y, 0.0f,
               counts);
      }
      if (x == 0.0f && y != 1.0f) {
        Report("exp(+-0) is not 1", x, y, 1.0f, counts);
      }
    }
    counts->checked.fetch_add(in.size());
  }
}

}  // namespace

int main() {
  constexpr int kThreads = 4;
  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr uint64_t kPer = kAll / kThreads;
  const auto start = std::chrono::steady_clock::now();
  Counts counts;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back(Sweep, kPer * t, kPer * (t + 1), &counts);
  }
  for (std::thread& th : pool) th.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("exp_sweep: %llu inputs, %llu failures, %.1f s\n",
              static_cast<unsigned long long>(counts.checked.load()),
              static_cast<unsigned long long>(counts.failed.load()), seconds);
  return counts.failed.load() == 0 ? 0 : 1;
}
