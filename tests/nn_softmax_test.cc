// Exp and softmax contracts (nn/softmax.h):
//  - ExpRow's table holds 2^(i/32) rounded to double, and ExpRow is
//    bit-identical to the scalar glibc `__expf` oracle
//    (testing::ReferenceExpf) on every 64th float of [-104, 88.72] and on
//    the special values, and within 1 ULP of round-to-float(double exp);
//  - it returns exactly +0 below -0x1.9fe368p6 (the -1e9 attention mask
//    relies on it) and exactly 1 at +-0;
//  - no ExpRow or SoftmaxRows output bit depends on the row length, the
//    start offset or the number of rows in the call;
//  - SoftmaxRows equals the scalar max / exp / ascending-sum / multiply
//    loop bit for bit, and ReluRow equals the branch it replaced.
// tools/exp_sweep runs the first two checks over all 2^32 floats.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/softmax.h"
#include "testing/reference_exp.h"
#include "util/rng.h"

namespace dtt {
namespace nn {
namespace internal {
namespace {

using ::dtt::testing::ReferenceExpf;

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

/// Distance in representable floats between two finite, same-signed or
/// zero values (exp results are never negative).
int64_t UlpDistance(float a, float b) {
  return std::llabs(static_cast<int64_t>(Bits(a)) -
                    static_cast<int64_t>(Bits(b)));
}

/// Runs ExpRow over `inputs` and checks each element against the oracle
/// (bitwise) and against round-to-float(double exp) (within 1 ULP).
void CheckAgainstOracles(const std::vector<float>& inputs) {
  std::vector<float> out = inputs;
  ExpRow(out.data(), static_cast<int>(out.size()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const float x = inputs[i];
    ASSERT_EQ(Bits(out[i]), Bits(ReferenceExpf(x)))
        << "x = " << std::hexfloat << x << " (bits 0x" << std::hex << Bits(x)
        << ")";
    if (std::isnan(x)) {
      ASSERT_TRUE(std::isnan(out[i]));
      continue;
    }
    const float rounded = static_cast<float>(std::exp(static_cast<double>(x)));
    ASSERT_LE(UlpDistance(out[i], rounded), 1)
        << "x = " << std::hexfloat << x << " exp " << out[i] << " vs "
        << rounded;
  }
}

std::vector<float> SpecialValues() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  return {0.0f,
          -0.0f,
          inf,
          -inf,
          nan,
          -nan,
          std::numeric_limits<float>::max(),
          -std::numeric_limits<float>::max(),
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          std::numeric_limits<float>::min(),
          88.0f,
          -88.0f,
          std::nextafter(88.0f, 0.0f),
          std::nextafter(-88.0f, 0.0f),
          0x1.62e42ep6f,
          std::nextafter(0x1.62e42ep6f, inf),
          -0x1.9fe368p6f,
          std::nextafter(-0x1.9fe368p6f, -inf),
          -0x1.9d1d9ep6f,
          -1e9f,
          1e9f,
          // The two inputs where glibc's FMA body differs from the generic
          // one this kernel follows.
          std::bit_cast<float>(0xc27c65d9u),
          std::bit_cast<float>(0x4202422fu)};
}

// A last-bit error in the copied table moves almost no float result, so
// the sweeps below would not see it; check the entries themselves.
TEST(ExpRowTest, TableHoldsRoundedPowersOfTwo) {
  for (uint64_t i = 0; i < 32; ++i) {
    const double want = static_cast<double>(
        std::exp2l(static_cast<long double>(i) / 32.0L));
    EXPECT_EQ(exp_detail::kTable[i] + (i << 47), std::bit_cast<uint64_t>(want))
        << "entry " << i;
  }
}

TEST(ExpRowTest, BitIdenticalToGlibcOracleOnEvery64thFloat) {
  constexpr uint32_t kStride = 64;
  const uint32_t neg_end = Bits(-104.0f);        // -0 .. -104
  const uint32_t pos_end = Bits(0x1.62e42ep6f);  // +0 .. 88.72
  std::vector<float> batch;
  batch.reserve(1 << 16);
  auto flush = [&batch] {
    CheckAgainstOracles(batch);
    batch.clear();
  };
  for (uint32_t b = 0x80000000u; b <= neg_end; b += kStride) {
    batch.push_back(std::bit_cast<float>(b));
    if (batch.size() == batch.capacity()) flush();
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (uint32_t b = 0; b <= pos_end; b += kStride) {
    batch.push_back(std::bit_cast<float>(b));
    if (batch.size() == batch.capacity()) flush();
    if (::testing::Test::HasFatalFailure()) return;
  }
  flush();
}

TEST(ExpRowTest, BitIdenticalToGlibcOracleOnSpecialValues) {
  CheckAgainstOracles(SpecialValues());
  // Each special value also inside an otherwise ordinary 4-lane group, in
  // every lane position.
  for (const float special : SpecialValues()) {
    for (int lane = 0; lane < 4; ++lane) {
      std::vector<float> group = {-1.5f, 0.25f, 3.0f, -7.0f};
      group[static_cast<size_t>(lane)] = special;
      CheckAgainstOracles(group);
    }
  }
}

TEST(ExpRowTest, UnderflowIsExactZeroAndZeroIsOne) {
  std::vector<float> below;
  for (float x = std::nextafter(-0x1.9fe368p6f, -1e30f); x > -1e30f;
       x = x * 1.001f - 0.5f) {
    below.push_back(x);
  }
  below.push_back(-1e9f);
  below.push_back(-std::numeric_limits<float>::infinity());
  ExpRow(below.data(), static_cast<int>(below.size()));
  for (const float y : below) ASSERT_EQ(Bits(y), 0u);

  std::vector<float> zeros = {0.0f, -0.0f, 0.0f, -0.0f, -0.0f};
  ExpRow(zeros.data(), static_cast<int>(zeros.size()));
  for (const float y : zeros) EXPECT_EQ(Bits(y), Bits(1.0f));
}

/// Values spanning the ordinary range plus every special, shuffled so
/// specials land in varying lanes.
std::vector<float> MixedInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<float> specials = SpecialValues();
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.NextBounded(8) == 0
            ? specials[rng.NextBounded(specials.size())]
            : static_cast<float>(rng.NextDouble() * 200.0 - 110.0);
  }
  return v;
}

TEST(ExpRowTest, OutputIndependentOfLengthAndOffset) {
  const std::vector<float> inputs = MixedInputs(203, 7);
  std::vector<float> whole = inputs;
  ExpRow(whole.data(), static_cast<int>(whole.size()));
  for (size_t offset = 0; offset < 9; ++offset) {
    for (size_t n = 0; offset + n <= inputs.size(); n += 1 + n / 3) {
      std::vector<float> part = inputs;
      ExpRow(part.data() + offset, static_cast<int>(n));
      for (size_t i = 0; i < inputs.size(); ++i) {
        const float want =
            i >= offset && i < offset + n ? whole[i] : inputs[i];
        ASSERT_EQ(Bits(part[i]), Bits(want))
            << "offset " << offset << " n " << n << " i " << i;
      }
    }
  }
}

/// The scalar softmax every copy ran before SoftmaxRows: max, exp(x - max),
/// sum over ascending j, multiply by 1/sum.
void NaiveSoftmaxRow(float* row, int n) {
  float mx = row[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float sum = 0.0f;
  for (int j = 0; j < n; ++j) {
    row[j] = ExpScalar(row[j] - mx);
    sum += row[j];
  }
  const float inv = 1.0f / sum;
  for (int j = 0; j < n; ++j) row[j] *= inv;
}

/// Attention-like scores: finite, with exact -1e9-masked positions and
/// +-0 ties.
std::vector<float> ScoreRows(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(rows) * cols);
  for (float& x : v) {
    switch (rng.NextBounded(10)) {
      case 0: x = -1e9f; break;
      case 1: x = rng.NextBounded(2) ? 0.0f : -0.0f; break;
      default: x = static_cast<float>(rng.NextDouble() * 24.0 - 12.0);
    }
  }
  return v;
}

TEST(SoftmaxRowsTest, MatchesScalarSoftmaxForEveryShape) {
  for (const int cols : {1, 2, 3, 4, 5, 7, 8, 13, 71, 150, 261}) {
    for (const int rows : {1, 2, 3, 4, 5, 8, 9}) {
      std::vector<float> x = ScoreRows(rows, cols, 100 + cols * 16 + rows);
      std::vector<float> want = x;
      for (int r = 0; r < rows; ++r) {
        NaiveSoftmaxRow(want.data() + static_cast<size_t>(r) * cols, cols);
      }
      SoftmaxRows(x.data(), rows, cols);
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(Bits(x[i]), Bits(want[i]))
            << rows << "x" << cols << " element " << i;
      }
    }
  }
}

TEST(SoftmaxRowsTest, OutputIndependentOfRowCountAndPosition) {
  constexpr int kCols = 71;
  constexpr int kRows = 11;
  const std::vector<float> scores = ScoreRows(kRows, kCols, 5);
  std::vector<float> alone = scores;
  for (int r = 0; r < kRows; ++r) {
    SoftmaxRows(alone.data() + static_cast<size_t>(r) * kCols, 1, kCols);
  }
  // Every window of rows [first, first + count), in one call.
  for (int first = 0; first < kRows; ++first) {
    for (int count = 1; first + count <= kRows; ++count) {
      std::vector<float> x = scores;
      SoftmaxRows(x.data() + static_cast<size_t>(first) * kCols, count, kCols);
      for (int r = first; r < first + count; ++r) {
        for (int j = 0; j < kCols; ++j) {
          const size_t i = static_cast<size_t>(r) * kCols + j;
          ASSERT_EQ(Bits(x[i]), Bits(alone[i]))
              << "rows [" << first << ", " << first + count << ") row " << r;
        }
      }
    }
  }
}

TEST(SoftmaxRowsTest, MaskedPositionsGetExactZeroWeight) {
  std::vector<float> row = {0.5f, -1e9f, 2.0f, -1e9f, -1e9f, 1.0f, -1e9f};
  SoftmaxRows(row.data(), 1, static_cast<int>(row.size()));
  for (const size_t masked : {1, 3, 4, 6}) EXPECT_EQ(Bits(row[masked]), 0u);
}

TEST(ReluRowTest, MatchesBranchIncludingNegativeZeroAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {-1.0f, -0.0f, 0.0f, 2.5f, nan,  -nan, inf,
                          -inf,  1e-40f, -1e-40f, 3.0f, -3.0f, -nan};
  std::vector<float> want = x;
  for (float& v : want) {
    if (v < 0.0f) v = 0.0f;
  }
  ReluRow(x.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(Bits(x[i]), Bits(want[i])) << "element " << i;
  }
}

}  // namespace
}  // namespace internal
}  // namespace nn
}  // namespace dtt
